"""Replay the golden CLI corpus: stdout must be byte-identical, exit codes equal.

The corpus (``golden/expected.json``) covers measure/compare/deduce over every
family, abstract and rational models, table and json formats, every ``deduce``
rule branch, rational forms in every dimension 3-10, every sigma kind,
sigma-check, conic-family, plus all five verify suites on small groups.  ``golden/record.py`` regenerates it.
"""

import json
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
