"""The four benchmark workloads: their seeds, CLI commands and library bodies.

Shared by run.py and the per-iteration child (child.py). The library
bodies import halfspacedecay when called, after child.py has checked that the
package comes from the checkout's src/.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

A = 0.5
NV0 = 0.05
CHI = 0.5 + 0.5j


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli": the halfspacedecay CLI; "library": public functions in-process
    # Monte Carlo master seeds. `pool[0]` is the seed the acceptance tests pin
    # and the default; run.py's --seed n selects pool[n % len(pool)].
    # Every pool seed passes every statistical gate at the commit that
    # defined the benchmark (see README.md, "Seeds"). `held_out` passes too
    # and is never drawn by --seed: a later speed claim must also hold on it.
    pool: tuple = ()
    held_out: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_validate_cli", "cli", pool=(11, 3, 5, 6, 7), held_out=9),
        Workload("mc_gates_small", "library", pool=(114, 1, 2, 3, 4), held_out=5),
        Workload("surface_term_small", "library", pool=(41, 6, 8, 11, 12), held_out=13),
        Workload("closed_form_cli", "cli"),
    )
}


def mc_seed(workload: Workload, bench_seed: int | None) -> int | None:
    """Monte Carlo master seed for a benchmark seed (None: the pinned default)."""
    if not workload.pool:
        return None
    if bench_seed is None:
        return workload.pool[0]
    return workload.pool[bench_seed % len(workload.pool)]


CLOSED_FORM_COMMANDS = (
    ("figure1",),
    ("figure1", "--q", "0.3", "--chi-re", "0.4", "--chi-im", "0.2"),
    ("en-table",),
    ("mie-table",),
    ("consistency",),
)


def cli_commands(name: str, seed: int | None) -> list:
    """argv lists (after the program name) that one iteration runs."""
    if name == "mc_validate_cli":
        return [["mc-validate", "--samples", "24", "--seed", str(seed)]]
    if name == "closed_form_cli":
        return [list(c) for c in CLOSED_FORM_COMMANDS]
    raise KeyError(name)


def build_inputs(name: str, seed: int) -> dict:
    """Inputs of a library workload, built before the first timed call."""
    from halfspacedecay import mcvalidate as mc

    geometry = mc.SlabGeometry(depth_L=16.0, width_W=12.0, radius_a=A)
    if name == "mc_gates_small":
        # acceptance test 8: probe heights, separations and lateral offsets
        offs6 = tuple((x, y) for x in (-4.5, -1.5, 1.5) for y in (-3.0, 3.0))
        offs9 = tuple((x, y) for x in (-3.0, 0.0, 3.0) for y in (-3.0, 0.0, 3.0))
        return {
            "geometry": geometry,
            "seed": seed,
            "heights": [-1.0, -0.75, -0.5, -0.25, 0.0, 0.5, 0.75, 1.0],
            "offs4": ((-3.0, -3.0), (-3.0, 3.0), (3.0, -3.0), (3.0, 3.0)),
            "pairs": (
                (0.0, ((0.0, 0.0),)),
                (0.5, ((0.0, 0.0),)),
                (1.5, offs6),
                (2.0, offs6),
                (2.5, offs6),
            ),
            "zmid": -8.0,
            "i2_pairs": ((0.0, ((-3.0, 0.0), (3.0, 0.0))), (0.5, offs9), (1.0, offs9)),
        }
    if name == "surface_term_small":
        # acceptance test 9
        return {"geometry": geometry, "seed": seed, "atom": np.array([0.0, 0.0, 15.0])}
    raise KeyError(name)


def run_library(name: str, inputs: dict) -> dict:
    """One iteration of a library workload; returns plain numbers for checking."""
    from halfspacedecay import mcvalidate as mc
    from halfspacedecay import medium

    if name == "mc_gates_small":
        return _mc_gates_small(inputs, mc, medium)
    if name == "surface_term_small":
        return _surface_term_small(inputs, mc)
    raise KeyError(name)


def _mc_gates_small(inp: dict, mc, medium) -> dict:
    geometry = inp["geometry"]
    n_density = NV0 / geometry.sphere_volume
    configs = [
        mc.sample_configuration(geometry, NV0, s) for s in mc.spawn_seeds(inp["seed"], 10_000)
    ]
    gates = []

    def record(label, est, target):
        gates.append([label, float(est.mean), float(est.std_error), float(target)])

    heights = inp["heights"]
    for h, est in zip(heights, mc.estimate_filling(configs, heights)):
        record(f"filling h={h}", est, medium.mean_filling_profile(h, A, n_density))
    est = mc.estimate_filling(configs, [0.25], lateral_offsets=inp["offs4"])[0]
    record("filling h=0.25 offs4", est, medium.mean_filling_profile(0.25, A, n_density))

    zmid = inp["zmid"]
    for r, offsets in inp["pairs"]:
        est = mc.estimate_pair_overlap(
            configs, (0.0, 0.0, zmid), (r, 0.0, zmid), lateral_offsets=offsets
        )
        record(f"pair r={r}", est, NV0 * float(medium.overlap_c(np.float64(r), A)) + NV0**2)

    for r, offsets in inp["i2_pairs"]:
        pair = ((-r / 2.0, 0.0, 0.0), (r / 2.0, 0.0, 0.0))
        est = mc.estimate_surface_moment_i2(configs, pair, lateral_offsets=offsets)
        record(f"i2 r={r}", est, medium.overlap_i2(r, 0.0, A))
    return {"gates": gates}


def _complex_rows(m) -> list:
    return [[float(v.real), float(v.imag)] for v in m.ravel()]


def _surface_term_small(inp: dict, mc) -> dict:
    atom = inp["atom"]
    geometry = inp["geometry"]
    stream = mc.sample_configurations(geometry, NV0, inp["seed"], 960)
    est = mc.born_first_order_average(stream, atom, atom, CHI)
    full = mc.analytic_first_order(atom, atom, CHI, geometry, NV0, A)
    bulk = mc.analytic_first_order(atom, atom, CHI, geometry, NV0, A, include_surface=False)
    return {
        "mean": _complex_rows(est.mean),
        "std_error": _complex_rows(est.std_error),
        "n_samples": est.n_samples,
        "full": _complex_rows(full),
        "bulk": _complex_rows(bulk),
    }
