"""Every catalog entry's lowered core, pinned bit for bit.

tests/data/entry_cores.txt holds the repr of u0, amp, nu, shift, qsign, w
and params() of every entry of enumerate_catalog at four wave numbers, and
of the canonical reduction of every derived a-b entry.  The shifts come from
math.log, which is the platform's libm, so the lines are kept per machine
type and C library and compared only where both match.

A change that alters a core on purpose rewrites this machine's lines with

    PYTHONPATH=src python tests/test_entry_cores.py
"""

import pathlib
import platform
import sys

import pytest

from cahnallen.solutions import Family, enumerate_catalog, reduce_ab_to_canonical

GOLDEN = pathlib.Path(__file__).resolve().parent / "data" / "entry_cores.txt"
HEADER = "# scope k entry u0 amp nu shift qsign w params; see tests/test_entry_cores.py\n"
KS = ("0.5", "1", "1.37", "2.5")
FIELDS = ("u0", "amp", "nu", "shift", "qsign", "w")


def libm_scope() -> str:
    lib, version = platform.libc_ver()
    return f"{platform.machine()}-{lib or 'libc'}-{version or platform.system()}"


def _core(spec) -> str:
    params = ";".join(f"{n}={v!r}" for n, v in spec.params)
    return " ".join([*(repr(getattr(spec, f)) for f in FIELDS), params or "-"])


def cores() -> dict[tuple[str, str, str], str]:
    """{(scope, k, entry id): core line} over the catalog and its reductions."""
    scope, out = libm_scope(), {}
    for k in KS:
        catalog = enumerate_catalog(float(k))
        reductions = [reduce_ab_to_canonical(s) for s in catalog
                      if s.family is Family.AB_EXP_FORM and s.reading == "derived"]
        for spec in catalog + reductions:
            out[scope, k, spec.entry_id] = _core(spec)
    return out


def read_golden() -> dict[tuple[str, str, str], str]:
    recorded = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            scope, k, entry, core = line.split(" ", 3)
            recorded[scope, k, entry] = core
    return recorded


def test_reductions_are_pinned_too():
    reduced = [key for key in cores() if key[2].endswith("->canonical")]
    assert len(reduced) == 8 * len(KS)


def test_every_core_matches_the_golden_file():
    recorded, scope = read_golden(), libm_scope()
    if not any(key[0] == scope for key in recorded):
        pytest.skip(f"no entry cores recorded for {scope}")
    produced = cores()
    keys = {key for key in produced} | {key for key in recorded if key[0] == scope}
    changed = sorted(f"k={k} {entry}: {recorded.get((s, k, entry))} -> "
                     f"{produced.get((s, k, entry))}"
                     for s, k, entry in keys
                     if produced.get((s, k, entry)) != recorded.get((s, k, entry)))
    assert changed == []


def main() -> int:
    kept = {key: c for key, c in read_golden().items() if key[0] != libm_scope()} \
        if GOLDEN.exists() else {}
    kept.update(cores())
    GOLDEN.write_text(HEADER + "".join(
        f"{scope} {k} {entry} {core}\n"
        for (scope, k, entry), core in sorted(kept.items())))
    sys.stdout.write(f"wrote {len(kept)} entry cores to {GOLDEN}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
