"""Same arguments, same bytes: every output of a fixed command matrix
against the digests in tests/data/outputs.sha256.

The exact-layer commands (`derive`, `catalog`) must match on every machine.
`eval` evaluates its profiles with `math`, so its bytes come from the
platform's C library; its digests are kept per machine type and C library
(the scope of tests/test_entry_cores.py).  numpy picks its transcendental
kernels by CPU dispatch, so the other numeric outputs may differ in their
last bits elsewhere; their digests are kept per numpy version and dispatch
set.  Each scope is compared only where it matches.

A change that alters outputs on purpose rewrites the file with

    PYTHONPATH=src python tests/test_outputs.py

which replaces the exact digests and those of this machine's C-library and
numeric scopes and keeps the digests recorded on other machines.
"""

import contextlib
import hashlib
import io
import pathlib
import sys
import tempfile

import pytest
from test_entry_cores import libm_scope

from cahnallen import cli

DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "outputs.sha256"
HEADER = "# scope output sha256; see tests/test_outputs.py\n"
EXACT = "exact"
KS = ("0.5", "1", "1.37", "2.5")

# case name -> argv; derive and catalog cases hold exact-layer outputs and
# eval cases C-library ones
MATRIX = {
    "derive-symbolic": ["derive"],
    **{f"derive-k{k}": ["derive", "--k", k] for k in KS},
    **{f"catalog-k{k}": ["catalog", "--k", k] for k in KS},
    **{f"verify-k{k}": ["verify", "--k", k] for k in (*KS, "30", "1e10")},
    "verify-corrupt-eq20": ["verify", "--corrupt", "eq20"],
    "eval-eq20+": ["eval", "--entry", "eq20+", "--t", "0,1"],
    "eval-eq21+": ["eval", "--entry", "eq21+", "--t", "0,1"],
    "simulate-rk4": ["simulate", "--entry", "eq20+", "--scheme", "rk4",
                     "--grid=-20,20,201", "--T", "0.1"],
    "simulate-imex": ["simulate", "--entry", "eq20+", "--scheme", "imex",
                      "--grid=-20,20,201", "--T", "0.1", "--dt", "0.01"],
    "simulate-imex-default": ["simulate", "--entry", "eq20+", "--scheme",
                              "imex", "--T", "0.1"],
    "simulate-coarse": ["simulate", "--entry", "eq20+", "--grid=-40,40,17",
                        "--T", "1"],
    "convergence": ["convergence", "--entry", "eq20+"],
    "convergence-eq26+printed": ["convergence", "--entry", "eq26+printed"],
}


def numeric_scope() -> str:
    """numpy's version and the dispatched CPU features this machine runs."""
    import numpy
    from numpy._core import _multiarray_umath as umath

    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    tag = hashlib.sha256(",".join(found).encode()).hexdigest()[:12]
    return f"numpy-{numpy.__version__}-{tag}"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_matrix(root: pathlib.Path) -> dict[tuple[str, str], str]:
    """{(scope, output name): sha256} of every file, of each stdout with the
    exit code appended, and of each stderr; the out-dir is replaced by a fixed
    token in both streams."""
    numeric, libm = numeric_scope(), libm_scope()
    out = {}
    for case, argv in MATRIX.items():
        scope = EXACT if case.startswith(("derive", "catalog")) else \
            libm if case.startswith("eval") else numeric
        case_dir = root / case
        case_dir.mkdir()
        if argv[0] != "derive":
            argv = [*argv, "--out-dir", str(case_dir)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        text = stdout.getvalue().replace(str(case_dir), "<out>")
        out[scope, f"{case}/stdout"] = _sha(f"{text}[exit {code}]\n".encode())
        errors = stderr.getvalue().replace(str(case_dir), "<out>")
        out[scope, f"{case}/stderr"] = _sha(errors.encode())
        for path in sorted(case_dir.iterdir()):
            out[scope, f"{case}/{path.name}"] = _sha(path.read_bytes())
    return out


def read_digests() -> dict[tuple[str, str], str]:
    recorded = {}
    for line in DIGESTS.read_text().splitlines():
        if line and not line.startswith("#"):
            scope, name, digest = line.split()
            recorded[scope, name] = digest
    return recorded


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return run_matrix(tmp_path_factory.mktemp("matrix"))


def _changed(produced, recorded, scope) -> list[str]:
    names = {n for s, n in produced if s == scope} | \
        {n for s, n in recorded if s == scope}
    return sorted(n for n in names
                  if produced.get((scope, n)) != recorded.get((scope, n)))


def test_exact_outputs_match_their_digests(produced):
    assert _changed(produced, read_digests(), EXACT) == []


def _assert_scope_matches(produced, scope):
    recorded = read_digests()
    if not any(s == scope for s, _ in recorded):
        pytest.skip(f"no digests recorded for {scope}")
    assert _changed(produced, recorded, scope) == []


def test_numeric_outputs_match_their_digests(produced):
    _assert_scope_matches(produced, numeric_scope())


def test_libm_outputs_match_their_digests(produced):
    _assert_scope_matches(produced, libm_scope())


def main() -> int:
    kept = {key: d for key, d in read_digests().items()
            if key[0] not in (EXACT, libm_scope(), numeric_scope())} \
        if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        kept.update(run_matrix(pathlib.Path(root)))
    DIGESTS.write_text(HEADER + "".join(
        f"{scope} {name} {digest}\n"
        for (scope, name), digest in sorted(kept.items())))
    sys.stdout.write(f"wrote {len(kept)} digests to {DIGESTS}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
