"""Byte-for-byte CLI output: stdout and exit code of each command against
the files under tests/golden/.

Each golden file starts with an ``exit: <code>`` line followed by the exact
stdout.  After a deliberate change of output, re-record them with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from hopfsl2.cli import main

GOLDEN = Path(__file__).parent / "golden"
LABELS = "V0(1,1,1;0)\nVr(sq,1,1;0)\n"

COMMANDS = {
    "verify_axioms": "verify-axioms --n 3 --n1 1 --beta 1,1,1 --seed 7",
    "build_module_vr": "build-module --n 3 --n1 1 --beta 0,0,1 --kind Vr --g1 sq --i 0",
    # the 1-dimensional V0 matrices at a shifted top eigenvalue
    "build_module_v0": "build-module --n 3 --n1 1 --beta 0,0,0 --kind V0 --g1 q --gamma2 q --i 1",
    "fuse_vr": "fuse --n 3 --n1 1 --beta 0,0,1 --left Vr(sq,1,1;0) --right Vr(sq,1,1;0)",
    "fusion_table": "fusion-table --n 3 --n1 1 --beta 0,0,1 --labels-file LABELS",
    "relations_thm55": "verify-relations --suite thm5.5 --n 3 --n1 1 --beta 0,0,1 --extra-orders 8",
    "relations_gelaki": "verify-relations --suite cor-gelaki --n 3 --n1 1 --beta 1,0,0 --N 6",
    "relations_radford": "verify-relations --suite radford --n 4 --n1 1 --N 4",
    "relations_remark521": "verify-relations --suite remark5.21 --n 3 --n1 1 --beta 1,1,0 --N 6",
    "compare_rings": "compare-rings --n 3 --n1 1 --N 6 --beta-a 1,1,0 --beta-b 1,0,0",
    "integral_check": "integral-check --n 3 --n1 1 --beta 1,1,1 --m 1",
    "idempotents": "idempotents --n 3 --n1 1 --beta 1,1,1 --m 2 --n2 1 --n3 1",
    # a k-seed two tower steps deep: nested ext[...] text
    "build_module_nested_tower": (
        "build-module --n 3 --n1 1 --beta 1,1,1 --kind VI --g1 z9 --kseed-index 2 --extra-orders 9 4"
    ),
    "relations_thm519": "verify-relations --suite thm5.19 --n 3 --n1 1 --beta 1,1,1 --extra-orders 9 4",
    # a deeper tower: 32 decompositions over the towers of n = 4
    "relations_thm519_n4": "verify-relations --suite thm5.19 --n 4 --n1 1 --beta 1,1,1",
    # a typed library error: exit 1 with a top-level "error" block
    "relations_unbound_generator": "verify-relations --suite thm5.17 --n 5 --n1 2 --beta 1,0,1",
    # modules over a k-seed tower decomposed against cyclotomic candidates
    "relations_thm58_tower_module": "verify-relations --suite thm5.8 --n 3 --n1 1 --beta 1,1,0",
    # candidates over a tower that the module's traces do not reach
    "relations_thm58_incompatible_towers": "verify-relations --suite thm5.8 --n 3 --n1 1 --beta 1,1,1",
}


def cli_output(name: str, labels_dir: Path) -> str:
    """The exit line and stdout of one command; LABELS names a labels file."""
    labels = labels_dir / "labels.txt"
    labels.write_text(LABELS)
    argv = [str(labels) if a == "LABELS" else a for a in COMMANDS[name].split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return f"exit: {code}\n" + out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_output_matches_golden(name, tmp_path):
    assert cli_output(name, tmp_path) == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(COMMANDS):
            (GOLDEN / f"{name}.txt").write_text(cli_output(name, Path(tmp)))
            print("recorded", name)
