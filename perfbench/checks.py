"""Fail-closed checks of every workload's output.

Each check returns (problems, gates): `problems` lists everything wrong with
one operation (an empty list means it passed) and `gates` lists the
statistical gates as (label, |z|, passed). A check never trusts an exit code or a
z column it can recompute: a missing row, a NaN, a zero standard error
beside a mean that misses its target, or a closed form that drifted all
count as failures.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import exp1

HERE = Path(__file__).resolve().parent
REFERENCES = json.loads((HERE / "references.json").read_text())

Z_GATE = 3.0
SLAB_RTOL = 1e-6  # the slab quadrature's own coarse-vs-fine self-check
MIE_RTOL = 1e-9
EXACT_RTOL = 1e-12  # values the check recomputes with the same arithmetic

# mc-validate's fixed problem (cli._cmd_mc_validate)
MC_A, MC_NV0, MC_ZETA, MC_BOX = 0.5, 0.05, 15.0, 30.0
MC_HEADER = ["test", "label", "analytic_re", "analytic_im", "mc_re", "mc_im",
             "stderr_re", "stderr_im", "z"]
MC_ROWS = [("filling", f"h={h}") for h in (-1.0, -0.5, 0.0, 0.5, 1.0)] + [
    ("pair_overlap", "r=0.5"),
    ("surface_moment_i2", "r=0.5,cos=0"),
    ("born_first_order", "xx"),
    ("diagnostic", "tail_scale"),
]


def _close(value: float, target: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - target) <= atol + rtol * abs(target)


def _same(a: float, b: float) -> bool:
    return a == b or (math.isfinite(a) and math.isfinite(b) and _close(a, b, EXACT_RTOL))


def _z(diff: float, se: float) -> float:
    """|diff|/se, failing closed: a zero error beside a nonzero diff is |z| = inf."""
    if diff == 0.0:
        return 0.0
    return abs(diff) / se if se > 0.0 else math.inf


def _gate(gates: list, problems: list, label: str, z: float) -> None:
    passed = z <= Z_GATE  # False for NaN too
    gates.append((label, z, passed))
    if not passed:
        problems.append(f"{label}: |z| = {z:.3g} > {Z_GATE}")


def _parse_csv(stdout: bytes, header: list, problems: list) -> list:
    try:
        rows = list(csv.reader(io.StringIO(stdout.decode())))
    except (UnicodeDecodeError, csv.Error) as exc:
        problems.append(f"unparsable table: {exc}")
        return []
    if not rows or rows[0] != header:
        problems.append(f"header {rows[0] if rows else None} != {header}")
        return []
    return rows[1:]


def _floats(cells: list, problems: list, where: str) -> list:
    """Numeric cells as floats (empty cells as None); non-finite ones are problems."""
    out = []
    for cell in cells:
        if cell == "":
            out.append(None)
            continue
        try:
            value = float(cell)
        except ValueError:
            problems.append(f"{where}: non-numeric cell {cell!r}")
            value = math.nan
        if not math.isfinite(value):
            problems.append(f"{where}: non-finite value {cell!r}")
        out.append(value)
    return out


def _process_ok(code: int, stderr: bytes, problems: list) -> None:
    if code != 0:
        problems.append(f"exit code {code}")
    if stderr:
        problems.append(f"unexpected stderr: {stderr[:200]!r}")


# ---------------------------------------------------------------- mc-validate


def mc_validate_targets(medium) -> dict:
    n_density = MC_NV0 / (4.0 / 3.0 * math.pi * MC_A**3)
    targets = {
        ("filling", f"h={h}"): float(medium.mean_filling_profile(h, MC_A, n_density))
        for h in (-1.0, -0.5, 0.0, 0.5, 1.0)
    }
    targets[("pair_overlap", "r=0.5")] = (
        MC_NV0 * float(medium.overlap_c(np.array(MC_A), MC_A)) + MC_NV0**2
    )
    targets[("surface_moment_i2", "r=0.5,cos=0")] = float(medium.overlap_i2(MC_A, 0.0, MC_A))
    return targets


def check_mc_validate(code: int, stdout: bytes, stderr: bytes, targets: dict):
    """`halfspacedecay mc-validate --samples 24`; targets from mc_validate_targets."""
    problems, gates = [], []
    _process_ok(code, stderr, problems)
    rows = _parse_csv(stdout, MC_HEADER, problems)
    keys = [tuple(r[:2]) for r in rows]
    if keys != MC_ROWS:
        problems.append(f"rows {keys} != {MC_ROWS}")
        return problems, gates
    for row in rows:
        key = tuple(row[:2])
        where = " ".join(key)
        if len(row) != len(MC_HEADER) or "" in row[2:]:
            problems.append(f"{where}: missing cells")
            continue
        ana_re, ana_im, mc_re, mc_im, se_re, se_im, z_col = _floats(row[2:], problems, where)
        if key[0] == "diagnostic":
            expected = 1.0 / (32.0 * math.pi * min(math.hypot(MC_ZETA, MC_BOX / 2), MC_ZETA + MC_BOX))
            if not _close(ana_re, expected, EXACT_RTOL) or any((ana_im, mc_re, mc_im, se_re, se_im, z_col)):
                problems.append(f"{where}: {row[2:]} != [{expected!r}, 0, ...]")
        elif key[0] == "born_first_order":
            ref = complex(*REFERENCES["mc_validate_born_xx_analytic"])
            if abs(complex(ana_re, ana_im) - ref) > SLAB_RTOL * abs(ref):
                problems.append(f"{where}: analytic {complex(ana_re, ana_im)} != reference {ref}")
            z_xx = max(_z(mc_re - ana_re, se_re), _z(mc_im - ana_im, se_im))
            # the z column is the worst over all nine entries, so never below xx's
            if not z_col >= z_xx * (1.0 - EXACT_RTOL):
                problems.append(f"{where}: z column {z_col} < recomputed xx |z| {z_xx}")
            _gate(gates, problems, where, max(z_col, z_xx))
        else:
            target = targets[key]
            if not _close(ana_re, target, EXACT_RTOL, 1e-300) or ana_im != 0.0:
                problems.append(f"{where}: target {ana_re} != medium closed form {target!r}")
            if mc_im != 0.0 or se_im != 0.0:
                problems.append(f"{where}: scalar row has imaginary parts")
            z = _z(mc_re - target, se_re)
            if not _same(z_col, z):
                problems.append(f"{where}: z column {z_col} != recomputed |z| {z}")
            _gate(gates, problems, where, z)
    return problems, gates


def _doctored_tables(text: str) -> dict:
    """Copies of a good mc-validate table, each with one defect planted."""
    header, *rows = list(csv.reader(io.StringIO(text)))

    def table(edit):
        copy = [list(r) for r in rows]
        edit(copy)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([header] + copy)
        return out.getvalue().encode()

    def zero_stderr_mismatch(t):  # the z = 0 hole of cli._mc_rows_scalar
        t[0][4], t[0][6], t[0][8] = "0.5", "0.0", "0.0"

    def nan_estimate(t):
        t[7][4] = "nan"

    def missing_row(t):
        del t[5]

    def understated_z(t):
        t[6][4] = repr(float(t[6][2]) + 5.0 * float(t[6][6]))

    def born_analytic_drift(t):
        t[7][2] = repr(float(t[7][2]) * (1.0 + 1e-4))

    def target_drift(t):
        t[2][2] = repr(float(t[2][2]) + 1e-3)

    edits = (zero_stderr_mismatch, nan_estimate, missing_row, understated_z,
             born_analytic_drift, target_drift)
    return {e.__name__: table(e) for e in edits}


def self_test(targets: dict) -> list:
    """The recorded good table must pass and every doctored copy must fail."""
    text = (HERE / "fixtures" / "mc_validate_seed11.csv").read_text()
    problems = [f"control table: {p}" for p in check_mc_validate(0, text.encode(), b"", targets)[0]]
    if not check_mc_validate(1, text.encode(), b"", targets)[0]:
        problems.append("nonzero exit code was not scored as a failure")
    for name, doctored in _doctored_tables(text).items():
        if not check_mc_validate(0, doctored, b"", targets)[0]:
            problems.append(f"doctored table {name!r} was scored as a pass")
    return problems


# ------------------------------------------------------------ closed forms


def _en_oracle(u: complex) -> list:
    """E_0..E_3 from scipy's E_1 and the upward recurrence (an independent path)."""
    e = [np.exp(-u) / u, complex(exp1(u))]
    for n in (1, 2):
        e.append((np.exp(-u) - u * e[n]) / n)
    return e


def _check_figure1(rows, problems, decay):
    zs = np.linspace(5.0, 25.0, 400)
    if len(rows) != len(zs):
        problems.append(f"{len(rows)} rows, expected {len(zs)}")
        return
    for row, z in zip(rows, zs):
        zeta, f_s, f_a = _floats(row, problems, f"zeta={row[0]}")
        if zeta != z:
            problems.append(f"zeta {zeta} != {z!r}")
        if not (_close(f_s, decay.decay_scattering_only(z, 0.5, 0.5), 0.0, 1e-14)
                and _close(f_a, decay.decay_absorbing_only(z, 0.5 + 0.5j), 0.0, 1e-14)):
            problems.append(f"zeta={z}: f off its scattering/absorbing specialization")


def _check_figure1_custom(rows, problems, q=0.3, chi=0.4 + 0.2j, nv0=0.05):
    zs = np.linspace(5.0, 25.0, 400)
    if len(rows) != len(zs):
        problems.append(f"{len(rows)} rows, expected {len(zs)}")
        return
    for row, z in zip(rows, zs):
        zeta, f, gamma = _floats(row, problems, f"zeta={row[0]}")
        bracket = 1.0 - 0.4 * q * q - (1.0 / 3.0 - 28.0 / 75.0 * q * q - 2j / 9.0 * q**3) * chi
        expected = (bracket * chi * np.exp(2j * z) / z).imag
        if zeta != z or not _close(f, expected, 0.0, 1e-14):
            problems.append(f"zeta={z}: f {f} != closed form {expected!r}")
        if not _close(gamma, 1.0 - 3.0 / 16.0 * nv0 * f, 0.0, 1e-15):
            problems.append(f"zeta={z}: gamma_relative {gamma} != 1 - (3/16) nv0 f")


def _check_en_table(rows, problems):
    zs = np.linspace(5.0, 50.0, 10)
    if [tuple(r[:2]) for r in rows] != [(repr(float(z)), str(n)) for z in zs for n in range(4)]:
        problems.append("en-table rows are not zeta_a x n = linspace(5, 50, 10) x 0..3")
        return
    for row in rows:
        zeta, n, ex_re, ex_im, as_re, as_im, rel = _floats(row, problems, f"zeta={row[0]} n={row[1]}")
        u = -2j * zeta
        n = int(n)
        exact, approx = complex(ex_re, ex_im), complex(as_re, as_im)
        oracle = _en_oracle(u)[n]
        series = np.exp(-u) / u * (1.0 - n / u + n * (n + 1) / u**2)
        if abs(exact - oracle) > 1e-9 * abs(oracle):
            problems.append(f"E_{n}({u}) = {exact} != scipy exp1 recurrence {oracle}")
        if abs(approx - series) > EXACT_RTOL * abs(series):
            problems.append(f"E_{n}({u}) asymptotic {approx} != 3-term series {series}")
        if not _close(rel, abs(approx - exact) / abs(exact), EXACT_RTOL):
            problems.append(f"E_{n}({u}): rel_err column {rel} disagrees with its columns")


def _check_mie_table(rows, problems):
    refs = REFERENCES["mie_table_amplitudes"]
    if [r[0] for r in rows] != [str(l) for l in range(1, len(refs) + 1)]:
        problems.append(f"mie-table rows {[r[0] for r in rows]} != l = 1..{len(refs)}")
        return
    has_series = {(1, "e"), (2, "e"), (1, "m")}
    for row, ref in zip(rows, refs):
        l = int(row[0])
        values = _floats(row[1:], problems, f"l={l}")
        be, bm = complex(values[0], values[1]), complex(values[2], values[3])
        for got, want in ((be, complex(ref[0], ref[1])), (bm, complex(ref[2], ref[3]))):
            if abs(got - want) > MIE_RTOL * abs(want):
                problems.append(f"l={l}: amplitude {got} != reference {want}")
        for kind, full, cols, dev in (("e", be, values[4:6], values[8]), ("m", bm, values[6:8], values[9])):
            present = (l, kind) in has_series
            if present != (cols[0] is not None and dev is not None):
                problems.append(f"l={l}: small-q {kind} columns {'missing' if present else 'unexpected'}")
            elif present and not _close(dev, abs(complex(*cols) / full - 1.0), EXACT_RTOL):
                problems.append(f"l={l}: {kind} rel_dev {dev} disagrees with its columns")


def _check_consistency(rows, problems):
    if len(rows) != 1 or rows[0][0] != "200" or rows[0][3] != "pass":
        problems.append(f"consistency rows {rows} != one passing 200-sample row")
        return
    _, deviation, tol = _floats(rows[0][:3], problems, "consistency")
    if not 0.0 <= deviation <= tol == 1e-12:
        problems.append(f"kernel identity deviation {deviation} above tolerance {tol}")


CLOSED_FORM_HEADERS = {
    "figure1": ["zeta_a", "f_scattering", "f_absorbing"],
    "figure1-custom": ["zeta_a", "f", "gamma_relative"],
    "en-table": ["zeta_a", "n", "exact_re", "exact_im", "asymptotic_re", "asymptotic_im", "rel_err"],
    "mie-table": ["l", "be_re", "be_im", "bm_re", "bm_im", "be_small_q_re", "be_small_q_im",
                  "bm_small_q_re", "bm_small_q_im", "be_rel_dev", "bm_rel_dev"],
    "consistency": ["samples", "max_abs_deviation", "tolerance", "status"],
}


def check_closed_form(argv: list, code: int, stdout: bytes, stderr: bytes, decay) -> list:
    """One of the closed-form CLI commands at its default arguments."""
    problems = []
    _process_ok(code, stderr, problems)
    command = "figure1-custom" if argv[0] == "figure1" and len(argv) > 1 else argv[0]
    rows = _parse_csv(stdout, CLOSED_FORM_HEADERS[command], problems)
    if not rows:
        problems.append("empty table")
    elif command == "figure1":
        _check_figure1(rows, problems, decay)
    elif command == "figure1-custom":
        _check_figure1_custom(rows, problems)
    elif command == "en-table":
        _check_en_table(rows, problems)
    elif command == "mie-table":
        _check_mie_table(rows, problems)
    else:
        _check_consistency(rows, problems)
    return problems


# ------------------------------------------------------- library workloads


def check_mc_gates(result: dict, medium, nv0=0.05, a=0.5):
    """Acceptance test 8's gates, recomputed from the returned estimates."""
    problems, gates = [], []
    rows = result.get("gates", [])
    n_density = nv0 / (4.0 / 3.0 * math.pi * a**3)
    heights = [-1.0, -0.75, -0.5, -0.25, 0.0, 0.5, 0.75, 1.0]
    expected = {f"filling h={h}": medium.mean_filling_profile(h, a, n_density) for h in heights}
    expected["filling h=0.25 offs4"] = medium.mean_filling_profile(0.25, a, n_density)
    for r in (0.0, 0.5, 1.5, 2.0, 2.5):
        expected[f"pair r={r}"] = nv0 * float(medium.overlap_c(np.float64(r), a)) + nv0**2
    for r in (0.0, 0.5, 1.0):
        expected[f"i2 r={r}"] = medium.overlap_i2(r, 0.0, a)
    if [row[0] for row in rows] != list(expected):
        problems.append(f"gates {[row[0] for row in rows]} != {list(expected)}")
        return problems, gates
    for label, mean, se, target in rows:
        if not all(math.isfinite(v) for v in (mean, se, target)):
            problems.append(f"{label}: non-finite mean/std_error/target {mean}, {se}, {target}")
        if not _close(target, float(expected[label]), EXACT_RTOL, 1e-300):
            problems.append(f"{label}: target {target} != medium closed form {expected[label]!r}")
        _gate(gates, problems, label, _z(mean - target, se))
        if se > 0.0 and not se <= 0.10 * abs(mean):
            problems.append(f"{label}: std_error {se} above 10% of |mean| {abs(mean)}")
    return problems, gates


def _matrix(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs]).reshape(3, 3)


def check_surface_term(result: dict):
    """Acceptance test 9: agree with the surface-corrected slab, break from bulk-only."""
    problems, gates = [], []
    try:
        mean, se = _matrix(result["mean"]), _matrix(result["std_error"])
        full, bulk = _matrix(result["full"]), _matrix(result["bulk"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed result: {exc!r}"], gates
    if result.get("n_samples") != 960:
        problems.append(f"n_samples {result.get('n_samples')} != 960")
    for name, m in (("mean", mean), ("std_error", se), ("full", full), ("bulk", bulk)):
        if not np.isfinite(m).all():
            problems.append(f"{name} has non-finite entries")
    for name, m in (("full", full), ("bulk", bulk)):
        ref = _matrix(REFERENCES[f"surface_term_{name}"])
        if not np.abs(m - ref).max() <= SLAB_RTOL * np.abs(ref).max():
            problems.append(f"analytic {name} drifted from its reference beyond rtol {SLAB_RTOL}")
    diff = mean - full
    worst = max(
        max(_z(d.real, s.real), _z(d.imag, s.imag)) for d, s in zip(diff.ravel(), se.ravel())
    )
    _gate(gates, problems, "agrees with surface-corrected slab", worst)
    gap = mean[0, 0] - bulk[0, 0]
    s = se[0, 0]
    z_gap = max(abs(gap.real) / s.real, abs(gap.imag) / s.imag) if s.real > 0 and s.imag > 0 else 0.0
    gates.append(("breaks from bulk-only xx", z_gap, z_gap > Z_GATE))
    if not z_gap > Z_GATE:
        problems.append(f"break from bulk-only xx: |z| = {z_gap:.3g}, needs > {Z_GATE}")
    return problems, gates
