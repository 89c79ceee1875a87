"""SHA-256 of every output field of a fixed set of fits, chains and bands.

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/output_hashes.py --values change.npz > change.json
    python tests/output_hashes.py --compare base.json change.json \\
        base.npz change.npz

The first form runs every case below through the public API of the
``gpalign`` on the path and prints one JSON object, ``case.field`` to the
hash of that field's value; ``--values PATH`` also writes every field's value
to the ``.npz`` file PATH (numbers as arrays, anything else as its JSON text,
a nested dataclass as one entry per field).  Run it once per source tree
(another tree's ``src`` on ``PYTHONPATH``) at one BLAS thread, since the dense
products round by thread count.  ``--compare`` prints how many fields differ
between two such files, their names, and any field that one file has and the
other lacks; given both value files too, it prints beside each differing
field how far it moved, as the normwise relative difference
max|change - base| / max|base|.

The cases: criterion-1 data fitted at p = 50 and p = 400, criterion-3 data
fitted with the noisy model at p = 40 and p = 400 (and at p = 40 with one
smoothing pass before a frozen fit), ``presmooth_only`` at both sizes, a
chain from each fit and two with no init, the acceptance fixtures (the
criterion-1 fit and criterion-4 chain, the criterion-3 fit and chain), and
the ``predict`` benchmark workload's bootstrap bands (run seed 1, jobs 0-1).
"""

import dataclasses
import hashlib
import json
import sys

import numpy as np

import gpalign

REG_CONFIG = dict(gamma_R=1e5, gamma_w=10.0, lambda_w=100.0)
NOISY_CONFIG = dict(gamma_R=1e4, gamma_w=10.0, lambda_w=100.0, noisy=True)
PRED_CONFIG = dict(gamma_R=1e3, gamma_w=20.0, lambda_w=200.0)


def digest(value) -> str:
    """The hash of an array (its dtype, shape and bytes) or of a scalar,
    string, list or dict (its JSON text)."""
    if isinstance(value, (np.ndarray, np.generic)):
        arr = np.ascontiguousarray(value)
        data = f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()
    elif isinstance(value, list) and value and all(
            isinstance(v, (float, np.floating)) for v in value):
        return digest(np.asarray(value, dtype=float))
    else:
        data = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(data).hexdigest()


def plain(value) -> np.ndarray:
    """A value as an array an ``.npz`` holds without pickling: numbers as
    they are, anything else (None, strings, dicts) as its JSON text."""
    arr = np.asarray(value)
    if arr.dtype.kind in "biuf":
        return arr
    return np.asarray(json.dumps(value, sort_keys=True, default=repr))


def fields(name: str, result, values: dict | None = None) -> dict:
    """``name.field`` to the digest of every dataclass field of ``result``;
    with ``values``, also each field's ``plain`` value into it, a nested
    dataclass as ``name.field.subfield``."""
    out = {}
    for f in dataclasses.fields(result):
        value = getattr(result, f.name)
        out[f"{name}.{f.name}"] = digest(value)
        if values is not None:
            if dataclasses.is_dataclass(value):
                fields(f"{name}.{f.name}", value, values)
            else:
                values[f"{name}.{f.name}"] = plain(value)
    return out


def problem(p: int, noisy: bool):
    grid = gpalign.build_time_grid(np.linspace(0.0, 1.0, p))
    sim = gpalign.simulate_dataset("gauss3mix", 20, grid, noise_sd=0.5 if noisy else 0.0,
                                   seed=17 if noisy else 42)
    return grid, gpalign.build_penalty_set(grid), sim


def fits_and_chains(values: dict | None = None) -> dict:
    out = {}
    reg, noisy = gpalign.ModelConfig(**REG_CONFIG), gpalign.ModelConfig(**NOISY_CONFIG)
    for p, iters, sweeps in ((50, 12, 60), (400, 3, 15)):
        _, pen, sim = problem(p, noisy=False)
        fit = gpalign.avb_fit(sim.Y, reg, pen, tol=1e-7, max_iters=iters, rescan_every=5)
        out |= fields(f"fit{p}", fit, values)
        out |= fields(f"chain{p}", gpalign.run_chain(
            sim.Y, reg, pen, iters=sweeps, burn_in=sweeps // 2, thin=3, init=fit,
            seed=5, step_scale=0.01), values)
    _, pen, sim = problem(50, noisy=False)
    out |= fields("chain50_no_init", gpalign.run_chain(sim.Y, reg, pen, iters=10, seed=2),
                  values)
    for p, iters, sweeps in ((40, 12, 300), (400, 7, 10)):
        _, pen, sim = problem(p, noisy=True)
        fit = gpalign.avb_fit_noisy(sim.Y, noisy, pen, tol=1e-6, max_iters=iters,
                                    freeze_X_after=5)
        out |= fields(f"noisy{p}", fit, values)
        out |= fields(f"noisy_chain{p}", gpalign.run_chain(
            sim.Y, noisy, pen, iters=sweeps, burn_in=sweeps // 3, thin=5, init=fit,
            seed=3, step_scale=0.03), values)
        out |= fields(f"presmooth{p}", gpalign.presmooth_only(sim.Y, noisy, pen), values)
    _, pen, sim = problem(40, noisy=True)
    out |= fields("noisy40_freeze0", gpalign.avb_fit_noisy(
        sim.Y, noisy, pen, max_iters=4, freeze_X_after=0), values)
    out |= fields("noisy_chain40_no_init", gpalign.run_chain(
        sim.Y, noisy, pen, iters=10, seed=4), values)
    return out


def acceptance_fixtures(values: dict | None = None) -> dict:
    """The fits and chains ``tests/test_acceptance.py`` judges criteria 1-4 and
    11 by, with the same data, settings and seeds."""
    reg = gpalign.ModelConfig(**REG_CONFIG)
    _, pen, sim = problem(50, noisy=False)
    fit = gpalign.avb_fit(sim.Y, reg, pen, tol=1e-7, max_iters=120, rescan_every=5)
    out = fields("criterion1_fit", fit, values)
    out |= fields("criterion4_chain", gpalign.run_chain(
        sim.Y, reg, pen, iters=1500, burn_in=0, thin=3, init=fit, seed=11,
        step_scale=0.01), values)
    noisy = gpalign.ModelConfig(**NOISY_CONFIG)
    _, pen, sim = problem(40, noisy=True)
    fit = gpalign.avb_fit_noisy(sim.Y, noisy, pen, tol=1e-6, max_iters=40,
                                freeze_X_after=5)
    out |= fields("criterion3_fit", fit, values)
    out |= fields("criterion3_chain", gpalign.run_chain(
        sim.Y, noisy, pen, iters=5000, burn_in=0, thin=5, init=fit, seed=3,
        step_scale=0.03), values)
    return out


def predict_bands(values: dict | None = None) -> dict:
    """``perfbench``'s ``predict`` workload at full size, run seed 1."""
    grid = gpalign.build_time_grid(np.linspace(0.0, 1.0, 50))
    pen, t, r = gpalign.build_penalty_set(grid), grid.points, 30
    window = list(np.linspace(t[r - 1] - 0.12, t[r - 1] + 0.08, 5))
    out = {}
    for k in range(2):
        s = int(np.random.SeedSequence([1, k]).generate_state(1)[0])
        sim = gpalign.simulate_dataset("gauss3mix", 21, grid, seed=s)
        out |= fields(f"predict{k}", gpalign.bootstrap_bands(
            gpalign.PartialObservation(sim.Y[0][:r]), sim.registered_truth[1:],
            sim.bases[1:], window, grid, gpalign.ModelConfig(**PRED_CONFIG), pen,
            M=2, S=50, sigma_z0_sq=float(np.var(sim.z0[1:], ddof=1)),
            sigma_z1_sq=float(np.var(sim.z1[1:], ddof=1)), ridge_fraction=0.05,
            seed=s % 2**31, n_iters=10), values)
    return out


def relative_difference(base: np.ndarray, change: np.ndarray) -> str:
    """max|change - base| / max|base| of two numeric arrays of one shape, or
    why it cannot be formed."""
    if base.dtype.kind not in "biuf" or change.dtype.kind not in "biuf":
        return "not numeric"
    if base.shape != change.shape:
        return f"shape {base.shape} -> {change.shape}"
    base, change = base.astype(float), change.astype(float)
    if base.size == 0:
        return "empty"
    with np.errstate(invalid="ignore", divide="ignore"):
        return f"{np.max(np.abs(change - base)) / np.max(np.abs(base)):.2e}"


def compare(base_path: str, change_path: str, base_values: str | None = None,
            change_values: str | None = None) -> None:
    with open(base_path) as fh:
        base = json.load(fh)
    with open(change_path) as fh:
        change = json.load(fh)
    differ = sorted(k for k in base.keys() & change.keys() if base[k] != change[k])
    print(f"{len(differ)} of {len(change)} fields differ"
          + (" (normwise relative difference beside each)" if change_values else ""))
    if change_values:
        with np.load(base_values) as b, np.load(change_values) as c:
            for name in differ:
                # a nested dataclass's value is stored one entry per field
                parts = [k for k in c.files if k == name or k.startswith(name + ".")]
                diffs = [f"{k[len(name):]} {relative_difference(b[k], c[k])}"
                         for k in parts if k in b.files and not np.array_equal(b[k], c[k])]
                print(f"- {name}: {', '.join(d.strip() for d in diffs) or 'equal values'}")
    else:
        for name in differ:
            print(f"- {name}")
    if base.keys() != change.keys():
        print(f"fields in one file only: {sorted(base.keys() ^ change.keys())}")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        compare(*sys.argv[2:6])
        sys.exit()
    values = {} if sys.argv[1:2] == ["--values"] else None
    hashes = fits_and_chains(values) | acceptance_fixtures(values) | predict_bands(values)
    json.dump(hashes, sys.stdout, indent=0, sort_keys=True)
    print()
    if values is not None:
        np.savez(sys.argv[2], **values)
