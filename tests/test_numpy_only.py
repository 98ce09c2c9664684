"""The package runs on a numpy-only install (scipy is a test extra).

Each check runs in a fresh interpreter whose import system refuses
``scipy``, the way an environment without it would.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

_BLOCK_SCIPY = textwrap.dedent(
    """
    import sys

    class _NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r}")
            return None

    sys.meta_path.insert(0, _NoScipy())
    """
)


def _run_without_scipy(body: str, tmp_path: Path) -> subprocess.CompletedProcess:
    env = dict(
        os.environ,
        PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get("PYTHONPATH", ""),
        REPRO_CACHE_DIR=str(tmp_path / "cache"),
        REPRO_RUNS_DIR=str(tmp_path / "runs"),
    )
    return subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_blocker_refuses_scipy(tmp_path):
    result = _run_without_scipy(
        """
        try:
            import scipy
        except ImportError:
            sys.exit(0)
        sys.exit(1)
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_api_and_cli_import_without_scipy(tmp_path):
    result = _run_without_scipy(
        """
        import repro.api
        import repro.cli
        import repro.sim
        assert repro.sim.validate_botnet is not None
        leaked = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
        assert not leaked, leaked
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr


def test_table3_small_runs_without_scipy(tmp_path):
    result = _run_without_scipy(
        """
        from repro.cli import main
        sys.exit(main(["table3", "--small"]))
        """,
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert "TP rate at /24" in result.stdout


def test_validate_without_scipy_exits_2_with_hint(tmp_path):
    result = _run_without_scipy(
        """
        from repro.cli import main
        sys.exit(main(["validate", "--small"]))
        """,
        tmp_path,
    )
    assert result.returncode == 2
    assert "validate needs scipy" in result.stderr
    assert "pip install repro[test]" in result.stderr
    assert "Traceback" not in result.stderr
