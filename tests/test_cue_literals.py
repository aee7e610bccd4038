"""Negation, disjunction, object-particle and connective cues come from the
lexicon, and every suffix and argument frame from ``saek.predicate``: no
other source file spells one out.  Only the classifier reads the cued
tokens and the danger table to pick a rule, and its ``STEPS`` table is the
one definition of each cascade step.  Only ``normalize`` knows what a
vocative is, and only the engine falls back to the bundled lexicon."""

import ast
import re
from pathlib import Path

import pytest

from saek.classify import STEPS
from saek.lexicon import default_lexicon

SRC = Path(__file__).resolve().parents[1] / "src" / "saek"


def literals_in(path, forbidden):
    """Where ``path`` holds a string constant in ``forbidden``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value in forbidden:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    return found


def test_no_negation_surface_literals_in_source():
    lexicon = default_lexicon()
    negation = lexicon.negation
    fused = {"지" + s for s, kind in negation.items() if kind in ("ma", "malgo")}
    forbidden = set(negation) | fused | lexicon.disjunction
    assert {"말고", "지말고", "안", "못", "아니면"} <= forbidden
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [hit for path in paths for hit in literals_in(path, forbidden)]
    assert not found, "cue surfaces belong in the lexicon: " + ", ".join(found)


def test_no_object_particle_or_connective_literals_in_source():
    # predicate.py builds verb forms, whose suffixes may spell like a
    # particle (the -을 of 먹을); it reads no particle or connective
    lexicon = default_lexicon()
    objects = {s for s, entry in lexicon.josa.items() if entry.object}
    forbidden = objects | lexicon.connectives
    assert {"을", "를", "니까", "어서"} <= forbidden
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "predicate.py"]
    found = [hit for path in paths for hit in literals_in(path, forbidden)]
    assert not found, "particle and connective surfaces belong in the lexicon: " + ", ".join(found)


def test_wh_category_words_are_defined_once():
    # a wh argument ends in its category's word, which ArgumentCategory
    # defines: no other module spells one out
    wh = set(default_lexicon().wh_surfaces.values())
    forbidden = {category.value for category in wh}
    assert forbidden == {"사람", "의미", "위치", "시간", "이유", "방법"}
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "lexicon.py"]
    found = [hit for path in paths for hit in literals_in(path, forbidden)]
    assert not found, "category words belong in ArgumentCategory: " + ", ".join(found)


# precomposed syllables, conjoining jamo and compatibility jamo
HANGUL = re.compile("[\uac00-\ud7a3\u1100-\u11ff\u3130-\u318f]")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def hangul_literals_in(path):
    """Where ``path`` holds a string constant with Hangul in it, outside a
    docstring or the message of a raised exception."""
    tree = ast.parse(path.read_text("utf-8"))
    prose = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body and isinstance(node.body[0], ast.Expr):
            prose.add(id(node.body[0].value))
        if isinstance(node, ast.Raise) and node.exc is not None:
            prose.update(id(n) for n in ast.walk(node.exc))
    return [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in prose
        and HANGUL.search(node.value)
    ]


def test_no_suffix_literals_outside_predicate_forms():
    # each Korean suffix and frame is decided in saek.predicate (or read
    # from the lexicon), so analysis, classification and extraction spell none
    paths = [SRC / f"{name}.py" for name in ("analyze", "classify", "extract")]
    found = [hit for path in paths for hit in hangul_literals_in(path)]
    assert not found, "suffixes belong in saek.predicate: " + ", ".join(found)


def test_the_suffix_guard_sees_a_literal(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        'def f(s):\n    """-지 host."""\n    if s.endswith("지"):\n'
        '        raise ValueError("no -지")\n    return s + "ㅂ"\n',
        "utf-8",
    )
    assert hangul_literals_in(source) == ["probe.py:3: '지'", "probe.py:5: 'ㅂ'"]


def private_imports_in(path):
    """Where ``path`` imports an underscore name from a ``saek`` module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("saek")):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names if alias.name.startswith("saek.") for part in alias.name.split(".")]
        else:
            continue
        found += [f"{path.name}:{node.lineno}: {name}" for name in names if name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    # a name one module shares with another is public; a private one is
    # that module's own
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in private_imports_in(path)]
    assert not found, "private names stay in their module: " + ", ".join(found)


def test_the_private_import_guard_sees_one(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "from .lexicon import Lexicon, _check\nfrom saek import _x\nimport saek._y\nfrom os import _exit\n",
        "utf-8",
    )
    assert private_imports_in(source) == ["probe.py:1: _check", "probe.py:2: _x", "probe.py:3: _y"]


def names_in(path, attrs, names=frozenset()):
    """Where ``path`` reads an attribute in ``attrs``, or uses or imports a
    bare name in ``names``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            found.append(f"{path.name}:{node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(f"{path.name}:{node.lineno}: {node.id}")
        elif isinstance(node, ast.alias) and node.name in names:
            found.append(f"{path.name}:{node.lineno}: import {node.name}")
    return found


def test_extract_makes_no_rule_decision():
    # the cascade step that fired picks the extraction routine, so outside
    # the lexicon only the classifier reads the cued tokens or the danger
    # table; extract projects no label, and as the classifier hands the info
    # verb over, extract reads no info-verb table either; as each command
    # step hands over the form it read off its token (Classification.form),
    # extract reads no negation or conditional cue and cuts no form again
    rule = {"cued", "danger_pairs", "is_danger_predicate"}
    forms = {"conditional", "fused", "conditional_core", "negation_host", "strip_preverbal", "host_form"}
    found = names_in(
        SRC / "extract.py", rule | forms | {"negativeness", "infoverbs"}, forms | {"negativeness"}
    )
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("lexicon.py", "classify.py", "extract.py"):
            found += names_in(path, rule)
    assert not found, "rule decisions belong in the classifier: " + ", ".join(found)


def test_only_normalize_knows_what_a_vocative_is():
    # normalize leaves every name call out of the tokens, so no later layer
    # reads a vocative flag or table to skip one
    attrs = {"vocative", "is_vocative", "_is_vocative"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("analyze.py", "lexicon.py"):
            found += names_in(path, attrs, attrs)
    assert not found, "the vocative test belongs in normalize: " + ", ".join(found)


def test_only_the_engine_falls_back_to_the_bundled_lexicon():
    # Analyzer, Classifier and Extractor take the lexicon they are given;
    # only Engine() reads the bundled tables when it is given none
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("lexicon.py", "engine.py"):
            found += names_in(path, {"default_lexicon"}, {"default_lexicon"})
    assert not found, "only the engine falls back to the bundled lexicon: " + ", ".join(found)


def test_a_token_carries_its_own_offset():
    # each Eojeol holds its surface and its start in the text, so no module
    # reads a surface or offset tuple kept in step with the tokens
    found = [hit for path in sorted(SRC.glob("*.py")) for hit in names_in(path, {"surfaces", "offsets"})]
    assert not found, "a token's offset is Eojeol.start: " + ", ".join(found)


def test_extract_makes_no_malgo_cut():
    # normalize finds the 말고 cut once (NormalizedUtterance.kept), and extract
    # hands every routine the tokens from it on: no routine cuts again
    tree = ast.parse((SRC / "extract.py").read_text("utf-8"))
    found = literals_in(SRC / "extract.py", {"malgo"})
    found += [
        f"extract.py:{node.lineno}: def {node.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_after_malgo"
    ]
    assert not found, "the 말고 cut belongs in normalize: " + ", ".join(found)


def test_only_predicate_forms_rebuild_syllables():
    # syllable arithmetic belongs to the predicate forms; any other module
    # reads a coda through hangul.tail
    arithmetic = {"decompose", "compose", "with_tail"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name not in ("hangul.py", "predicate.py"):
            found += names_in(path, arithmetic, arithmetic)
    assert not found, "syllable arithmetic belongs in saek.predicate: " + ", ".join(found)


def calls_of(tree, name):
    """(enclosing function, line) of each call of ``name``, or of one of its
    attributes (``name._make``), and of each call that takes ``name`` as an
    argument: a positional build such as ``tuple.__new__(name, fields)``,
    whatever the function is bound to, in ``tree``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute):
                f = f.value
            passed = any(isinstance(a, ast.Name) and a.id == name for a in node.args)
            if passed or (isinstance(f, ast.Name) and f.id == name):
                found.append((where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return found


def test_classification_is_built_only_from_the_steps_table():
    # _fired reads each step's label and evidence rules from STEPS, so no
    # other code spells out a label for a step
    built = {
        (path.name, where)
        for path in sorted(SRC.glob("*.py"))
        for where, _ in calls_of(ast.parse(path.read_text("utf-8")), "Classification")
    }
    assert built == {("classify.py", "_fired")}


@pytest.mark.parametrize(
    "build",
    [
        "Classification(IntentLabel.WH, 'wh-word')",
        "Classification._make(fields)",
        "tuple.__new__(Classification, fields)",
        "_new(Classification, fields)",
        "partial(tuple.__new__, Classification)(fields)",
    ],
)
def test_calls_of_finds_a_build_outside_fired(build):
    # the guard above still fails for any way of building one elsewhere
    tree = ast.parse(f"def classify(fields):\n    return {build}\n")
    assert [where for where, _ in calls_of(tree, "Classification")] == ["classify"]


def test_only_the_steps_table_maps_a_step_to_its_routine():
    # extract.py spells no cascade step: Extractor looks each step's routine
    # up in STEPS, and every row names an Extractor method
    found = literals_in(SRC / "extract.py", set(STEPS))
    assert not found, "step names belong in classify.STEPS: " + ", ".join(found)
    tree = ast.parse((SRC / "extract.py").read_text("utf-8"))
    (cls,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Extractor"]
    methods = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    assert {step.routine for step in STEPS.values()} <= methods
