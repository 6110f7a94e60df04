"""Mutation check: each truth mutant of the library must fail a test that is not pinned.

Run from anywhere as ``python tests/mutants.py``; pytest does not collect this
file.  For each entry of MUTANTS it copies ``src/`` to a temporary directory,
checks that the old text occurs exactly once in the file, replaces it with the
new text and runs ``pytest -q -m "not pinned"`` on ``tests/`` against the
copy, printing the ids of the tests that fail.  The ``pinned`` tests assert
frozen literals of A(H) and c_V, so a mutant is killed only by a test that
checks a value against a second route (quadrature, an identity between the
coefficients, the covariance diagonal, an exact law).  An unmutated copy runs
first and must pass, so that a kill means the mutant.

Each row has a class.  A ``truth`` mutant must be killed.  A ``survivor`` is a
change that no test can see, such as a proof constant that a Gaussian truth
does not reach: it is run and reported with its reason, and does not fail the
script.  Exits 1 if the unmutated copy fails or any truth mutant survives.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (file under the repository root, old text, new text, class, what the mutant breaks)
MUTANTS = [
    ("src/suptail/heat.py",
     "return math.gamma(2.0 * hurst + 1.0) / math.gamma(hurst + 1.0)",
     "return math.gamma(2.0 * hurst + 1.0) / math.gamma(hurst + 1.0) * (1.0 + 1e-9)",
     "truth", "r(H) = Gamma(2H+1) / Gamma(H+1) off by 1e-9 relative"),
    ("src/suptail/heat.py",
     "return math.sqrt(1.5 * gamma_ratio(hurst))",
     "return math.sqrt(1.4 * gamma_ratio(hurst))",
     "truth", "c_V = sqrt(3r/2) with 1.4 in place of 3/2"),
    ("src/suptail/heat.py",
     "return math.sqrt(2.0 ** (hurst - 2.0) * gamma_ratio(hurst))",
     "return 0.999 * math.sqrt(2.0 ** (hurst - 2.0) * gamma_ratio(hurst))",
     "truth", "A(H) = sqrt(2^(H-2) r) 0.1 % low"),
    ("src/suptail/sim.py",
     "gamma_ratio(hurst) / 4.0 *",
     "gamma_ratio(hurst) / 4.1 *",
     "truth", "covariance prefactor r/4 as r/4.1"),
    ("src/suptail/supbound.py",
     "return TailBound(k=k, scale=eps0,",
     "return TailBound(k=k, scale=eps0 * 0.97,",
     "truth", "box bound's scale eps0 x 0.97 in field_bound"),
    ("src/suptail/heat.py",
     "box.a2, box.b2, exponent / 2.0, exponent)",
     "box.a2, box.b2, exponent, exponent)",
     "truth", "time exponent H in place of H/2 in _heat_metric"),
    ("src/suptail/sim.py",
     "lambda b: np.abs(b, out=b).max(axis=0)",
     "lambda b: b.max(axis=0)",
     "truth", "one-sided supremum max V in place of max |V| in sample_sups"),
    ("src/suptail/supbound.py",
     "return 2.0 * bound.k / theta",
     "return bound.k / theta",
     "survivor", "entropy term 2k as k in _entropy: a proof constant a Gaussian truth cannot see"),
]


def run_suite(src: Path) -> subprocess.CompletedProcess:
    """The Tier-1 tests, pinned ones left out, with suptail imported from src."""
    # no bytecode: a mutant of the same size and mtime second would reuse a stale .pyc
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    where = subprocess.run([sys.executable, "-c", "import suptail; print(suptail.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout
    if not Path(where.strip()).is_relative_to(src):
        raise RuntimeError(f"suptail was imported from {where.strip()}, not from the copy in {src}")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-m", "not pinned", "tests"],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=900)


def main() -> int:
    escaped = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(REPO / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        clean = run_suite(src)
        if clean.returncode != 0:
            print(clean.stdout[-3000:], clean.stderr[-3000:])
            print("the unmutated copy fails its tests: no mutant can be judged")
            return 1
        for name, old, new, kind, reason in MUTANTS:
            path = src / Path(name).relative_to("src")
            text = (REPO / name).read_text(encoding="utf-8")
            count = text.count(old)
            if count != 1:
                raise ValueError(f"{name}: {old!r} occurs {count} times, not once")
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                result = run_suite(src)
            finally:
                path.write_text(text, encoding="utf-8")
            failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", result.stdout, re.MULTILINE)
            if result.returncode == 0:
                if kind == "truth":
                    escaped += 1
                print(f"{kind:<9} SURVIVED  {reason}")
            else:
                print(f"{kind:<9} killed    {reason}: {', '.join(failed) or f'pytest exit {result.returncode}'}")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
