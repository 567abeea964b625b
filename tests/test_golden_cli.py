"""Replay the golden CLI corpus: stdout must be byte-identical, exit codes equal.

The corpus (``golden/expected.json``) covers measure/compare/deduce over every
family, abstract and rational models, table and json formats, every ``deduce``
rule branch, rational forms in every dimension 3-10, every sigma kind,
sigma-check, conic-family, plus all five verify suites on small groups.  ``golden/record.py`` regenerates it.
``cli.main`` shares one parser across calls, so the corpus is also replayed in
one pass, in a seeded shuffled order and in reverse.
"""

import json
import random
from pathlib import Path

import pytest

from titsmeasure import cli

CORPUS = json.loads(
    (Path(__file__).resolve().parent / "golden" / "expected.json").read_text(encoding="utf-8")
)


def _run(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    return code, capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_invocation(capsys, name):
    case = CORPUS[name]
    code, out = _run(capsys, case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


def _shuffled(names):
    random.Random(5).shuffle(names)
    return names


@pytest.mark.parametrize("order", [_shuffled, lambda names: names[::-1]], ids=["shuffled", "reversed"])
def test_corpus_replays_in_any_order(capsys, order):
    for name in order(sorted(CORPUS)):
        case = CORPUS[name]
        assert _run(capsys, case["argv"]) == (case["exit"], case["stdout"]), name
