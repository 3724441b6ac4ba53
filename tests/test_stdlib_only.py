"""The runtime imports nothing outside the standard library."""
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# One project of 16 flaky and 10 true failures: enough for a 5-fold CV.
CONFIG = {
    "seed": 1,
    "projects": 1,
    "tests_per_project": {"constant": 2},
    "flaky_signatures_per_test": {"constant": 2},
    "flaky_occurrences_per_signature": {"constant": 4},
    "true_failures_per_test": {"constant": 5},
    "exception_pool": [{"name": "E", "weight": 1.0, "shared_across_labels": True}],
}

# Run under -I -S (no site-packages, no user paths, no PYTHON* variables):
# import every module of the package, then run --help and one evaluate.
SCRIPT = """
import contextlib, importlib, io, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import flaketriage
for info in pkgutil.iter_modules(flaketriage.__path__):
    importlib.import_module(f"flaketriage.{info.name}")
from flaketriage import cli
config, corpus = sys.argv[2:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        cli.main(["--help"]),
        cli.main(["generate", "--config", config, "--out", corpus]),
        cli.main(["evaluate", "--corpus", corpus, "--method", "tree"]),
    ]
modules = sorted({name.split(".")[0] for name in sys.modules})
print(json.dumps({"codes": codes, "modules": modules}))
"""


def test_runtime_imports_only_the_standard_library(tmp_path):
    config = tmp_path / "gen.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", SCRIPT, str(SRC), str(config),
         str(tmp_path / "corpus.xml")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout)
    assert result["codes"] == [0, 0, 0]
    assert "flaketriage" in result["modules"]
    outside = [
        name for name in result["modules"]
        if name not in ("flaketriage", "__main__")
        and name not in sys.stdlib_module_names
    ]
    assert outside == []
