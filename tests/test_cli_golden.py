"""Golden digests of the CLI artifacts.

`cli_golden.json` holds the sha256 of every CSV and JSON artifact that the
seven commands write with accept 10's small configs, computed by braidflow
0.1.0 with numpy 2.4 and scipy 1.17.  Accept 10 compares two runs of one
tree; these digests compare the tree with the one that made them, so a
refactor of the CLI that changes any byte fails here.

Regenerate (only when an artifact is meant to change) with
`PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json`.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from braidflow import cli

GOLDEN = Path(__file__).parent / "cli_golden.json"

# accept 10's commands and small configs
CONFIGS = {
    "gg.json": {"samples": 60, "t_list": [1, 2, 3, 4]},
    "co.json": {"n_loops": 3, "n_dirs": 500},
    "psi.json": {"a_max": 100.0, "n_grid": 5},
}
COMMANDS = [
    ("lp-length", []),
    ("psi-bound", ["--config", "psi.json"]),
    ("embed-demo", []),
    ("braid-of-flow", []),
    ("coarea-check", ["--config", "co.json"]),
    ("gg-check", ["--config", "gg.json"]),
    ("phi-estimate", ["--samples", "40"]),
]


def digests(root: Path) -> dict:
    for name, config in CONFIGS.items():
        (root / name).write_text(json.dumps(config), encoding="utf-8")
    found = {}
    for name, extra in COMMANDS:
        out = root / name
        argv = [str(root / a) if a in CONFIGS else a for a in extra]
        code = cli.main([name, *argv, "--out", str(out)])
        assert code == 0, f"{name} exited {code}"
        for art in sorted(out.iterdir()):
            found[f"{name}/{art.name}"] = hashlib.sha256(
                art.read_bytes()).hexdigest()
    return found


def test_cli_artifacts_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert digests(tmp_path) == golden["digests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        found = digests(Path(tmp))
    json.dump({"about": "sha256 of the CLI artifacts of accept 10's commands "
                        "and small configs (tests/test_cli_golden.py), made "
                        "by braidflow 0.1.0 with numpy 2.4 and scipy 1.17",
               "digests": found}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
