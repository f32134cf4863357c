"""Reusable property sweeps over the whole inequality and construction stack.

Each suite runs a deterministic seeded sweep and returns a JSON-ready dict:
its ``name``, the measured counts and extremes, and last its own ``status``
(holds or violated, from ``verdict.status``), decided from thresholds stated
here and nowhere else.  The CLI ``check-all`` command and the acceptance tests
drive these same functions, only with different trial counts.

Every seeded suite draws all its samples first, then evaluates them as
stacks.  Random-map trials go through one path,
``sesquilinear._random_map_pairs``, and the sweeps take their norms in one
stacked call per (exponent, target).  The pairing/Hoelder and tail-projection
suites check one stack per target, reading every exponent from one SVD per
block; the GNS suite verifies each representation with the stacked
``verify_representation``.  Each report is the one the public per-trial
check gives.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

import numpy as np

from .algebra import (TracedAlgebra, _schatten_from_svals, _stacked_schatten,
                      _tail_projections, as_exponent, schatten_norm)
from .errors import DomainError
from .gns import GnsRepresentation, VerificationReport, gns_construct, verify_representation
from .inequalities import _cs_lp_trials, _re_im_trials, default_cs_constant, uncertainty_check
from .kernels import KernelMap, OnePlusXTKernel, bound_checks
from .radius import (OperatorValuedMap, SearchBudget, _check_cs_stack, _nr_elements, _nr_stack,
                     _triple_norm_stack, numerical_radius)
from .sampling import (random_complex_matrix, random_element, random_psd,
                       random_psd_with_spectrum, random_unit_vector, rng_from,
                       substreams)
from .sesquilinear import _random_map_pairs
from .star import StarAlgebra, cyclic_group_algebra, matrix_algebra
from .verdict import VIOLATED, status, within

__all__ = ["target_pool", "commutative_pool", "cs_lp_sweep", "cs_normal_sweep",
           "re_im_sweep", "uncertainty_suite", "pairing_and_holder_suite",
           "tail_projection_suite", "numerical_radius_suite", "triple_norm_suite",
           "operator_valued_suite", "gns_suite", "gns_status", "kernel_bound_suite",
           "random_positive_linear_map"]


def target_pool() -> list[TracedAlgebra]:
    """Targets up to total dimension 6, including multi-block weighted traces."""
    return [
        TracedAlgebra([2]),
        TracedAlgebra([3]),
        TracedAlgebra([1, 1], [2.0, 1.0]),
        TracedAlgebra([2, 1], [0.5, 2.0]),
        TracedAlgebra([2, 2], [1.0, 0.75]),
        TracedAlgebra([1, 1, 1], [1.0, 0.5, 0.25]),
        TracedAlgebra([3, 2], [1.0, 0.5]),
        TracedAlgebra([4]),
    ]


def commutative_pool() -> list[TracedAlgebra]:
    return [
        TracedAlgebra([1]),
        TracedAlgebra([1, 1], [1.0, 2.0]),
        TracedAlgebra([1, 1, 1], [0.5, 1.0, 1.5]),
        TracedAlgebra([1, 1, 1, 1], [1.0, 0.25, 2.0, 0.5]),
    ]


def _require_trials(trials: int, seed: int) -> None:
    """Reject, before any draw, an empty sweep (no "holds" over nothing) and a negative seed."""
    if trials < 1:
        raise DomainError(f"a sweep needs trials >= 1, got {trials}")
    if seed < 0:
        raise DomainError(f"a sweep needs seed >= 0, got {seed}")


def _map_trials(trials: int, seed: int,
                pool: Sequence[TracedAlgebra]) -> list[tuple]:
    """The sweeps' random-map trials ``(target, d, rank, map_seed, x, y)``:
    trial t, on substream t of ``seed``, takes target t mod the pool, d = 1 +
    t mod 4 and rank 1 + t mod 3, then draws its map seed, x and y."""
    out = []
    for t, rng in enumerate(substreams(seed, trials)):
        d = 1 + (t % 4)
        out.append((pool[t % len(pool)], d, 1 + (t % 3), int(rng.integers(0, 2 ** 62)),
                    random_unit_vector(rng, d), random_unit_vector(rng, d)))
    return out


def cs_lp_sweep(trials: int, p_values: Sequence[float], seed: int = 0,
                pool: Sequence[TracedAlgebra] | None = None) -> dict:
    """Cauchy-Schwarz ratios of random certified-positive maps, per exponent.

    Ratios are measured against the constant-1 right-hand side; the status
    compares each recorded maximum with ``default_cs_constant(p)`` (2 in
    general, sqrt(2) at p = 2, 1 at p = 1).  Trials run on per-trial seed
    substreams of ``seed + round(1000 p)``; p = inf takes ``seed`` itself,
    an offset no finite p >= 1 has.  Each exponent's trials are checked as
    one stack (``_cs_lp_trials``): one norm call per target, each report
    the one ``check_cs_lp`` gives its trial.
    """
    _require_trials(trials, seed)
    p_values = list(p_values)
    if not p_values:
        raise DomainError("a Cauchy-Schwarz sweep needs at least one exponent")
    exponents = [as_exponent(p) for p in p_values]       # rejects p < 1 and nan
    pool = list(pool) if pool is not None else target_pool()
    t0 = time.perf_counter()
    per_p = {}
    worst_excess = 0.0
    for p, pe in zip(p_values, exponents):
        max_ratio, worst = -math.inf, None          # the first trial of largest ratio
        offset = int(round(pe.value * 1000)) if not pe.is_inf else 0
        for rep in _cs_lp_trials(_map_trials(trials, seed + offset, pool), pe):
            ratio = rep.ratio if math.isfinite(rep.ratio) else 0.0
            if ratio > max_ratio:
                max_ratio, worst = ratio, rep
        per_p[str(p)] = {"max_ratio": max_ratio, "trials": trials,
                         "worst_report": {"lhs": worst.lhs, "rhs": worst.rhs,
                                          "ratio": max_ratio, "margin": worst.margin,
                                          "status": worst.status}}
        worst_excess = max(worst_excess, max_ratio / (default_cs_constant(p) + 1e-8))
    return {"name": "cs_lp_sweep", "trials_per_p": trials, "per_p": per_p,
            "elapsed_s": time.perf_counter() - t0, "status": status(worst_excess <= 1.0)}


def cs_normal_sweep(trials: int, p_values: Sequence[float], seed: int = 0) -> dict:
    """Constant-1 ratios on commutative targets (all values normal)."""
    out = cs_lp_sweep(trials, p_values, seed=seed, pool=commutative_pool())
    worst = max(s["max_ratio"] for s in out["per_p"].values())
    return {"name": "cs_normal_sweep", "per_p": out["per_p"],
            "elapsed_s": out["elapsed_s"], "status": status(worst <= 1.0 + 1e-8)}


def re_im_sweep(trials: int, seed: int = 0) -> dict:
    """Real/imaginary part estimates at p = 2 on random positive maps, the
    trials checked as one stack (``_re_im_trials``)."""
    _require_trials(trials, seed)
    violations = 0
    worst_margin = math.inf
    for reps in _re_im_trials(_map_trials(trials, seed, target_pool())):
        for rep in reps:
            worst_margin = min(worst_margin, rep.margin)
            if not rep.ok:
                violations += 1
    return {"name": "re_im_sweep", "violations": violations,
            "worst_margin": worst_margin, "status": status(violations == 0)}


# -- uncertainty -------------------------------------------------------------------

def uncertainty_suite() -> dict:
    """Kernel-map uncertainty instance with its closed-form gamma and Delta.

    W = diag(1, 2), k(x, t) = 1 + x t, T = I on M_2 with a = sigma_x and
    b = sigma_y gives gamma = sqrt(20) and Delta_a(0) Delta_b(0) = sqrt(89);
    commuting a, b force gamma = 0.  The instance is closed-form, so the
    suite takes no seed.
    """
    alg = TracedAlgebra([2])
    km = KernelMap(alg.diagonal([1.0, 2.0]), OnePlusXTKernel())
    phi = km.as_sesquilinear()
    sigma_x = np.array([0, 1, 1, 0], dtype=complex)
    sigma_y = np.array([0, -1j, 1j, 0], dtype=complex)
    rep = uncertainty_check(phi, sigma_x, sigma_y)      # its 41-point grid on [-3, 3]
    # the first grid points of least |lam| and least |mu|
    i = int(np.argmin(np.abs(rep.lam_grid)))
    j = int(np.argmin(np.abs(rep.mu_grid)))
    delta_product = float(rep.delta_a[i] * rep.delta_b[j])
    # Delta >= 0 and rounding is monotone: the least product over the grid
    min_product = float(rep.delta_a.min() * rep.delta_b.min())
    # commuting pair: a = sigma_z, b = diag(1, 2) commute, so gamma must vanish
    sigma_z = np.array([1, 0, 0, -1], dtype=complex)
    diag12 = np.array([1, 0, 0, 2], dtype=complex)
    commuting = uncertainty_check(phi, sigma_z, diag12, [0.0], [0.0])
    gamma = rep.gamma
    ok = (rep.bound_failures == 0
          and abs(gamma - math.sqrt(20.0)) <= 1e-9
          and abs(delta_product - math.sqrt(89.0)) <= 1e-9
          and commuting.gamma <= 1e-12)
    return {"name": "uncertainty_suite",
            "gamma": gamma, "gamma_expected": math.sqrt(20.0),
            "delta_product_at_zero": delta_product,
            "delta_product_expected": math.sqrt(89.0),
            "grid_points": len(rep.lam_grid) * len(rep.mu_grid),
            "bound_failures": rep.bound_failures,
            "min_delta_product": min_product,
            "half_gamma": 0.5 * gamma,
            "commutator_residual": rep.commutator_residual,
            "k_hermitian_defect": rep.k_hermitian_defect,
            "commuting_gamma": commuting.gamma,
            "status": status(ok)}


# -- trace pairing, Hoelder, tail projections ------------------------------------------

def pairing_and_holder_suite(trials: int, seed: int = 0) -> dict:
    """rho(AB) positivity/realness for PSD pairs and the Hoelder inequality.

    Inputs are normalised to ||.||_2 = 1 so the absolute tolerances 1e-10
    (pairing) and 1e-9 (Hoelder) are meaningful.  All trials are drawn
    first, then checked as one stack per target: one 2-norm per operand,
    one stacked product and trace for rho(AB), and one SVD per block of g,
    h and gh, from which all five exponent pairs are read.  Each value is
    the one ``trace`` and ``holder_check`` give the trial alone.
    """
    _require_trials(trials, seed)
    pool = target_pool()
    draws: list[list] = [[] for _ in pool]
    for t, rng in enumerate(substreams(seed, trials)):
        alg = pool[t % len(pool)]
        a, b = random_psd(alg, rng), random_psd(alg, rng)
        g, h = random_element(alg, rng), random_element(alg, rng)
        draws[t % len(pool)].append([x.blocks for x in (a, b, g, h)])
    worst_re = math.inf
    worst_im = 0.0
    holder_violations = 0
    worst_holder_margin = math.inf
    for alg, items in zip(pool, draws):
        if not items:
            continue
        a, b, g, h = ([np.stack(blocks) for blocks in zip(*x)] for x in zip(*items))
        a, b, g, h = (_unit_2norm(alg, x) for x in (a, b, g, h))
        val = 0
        for wt, ak, bk in zip(alg.weights, a, b):     # trace's weighted block sum
            val = val + wt * np.trace(ak @ bk, axis1=1, axis2=2)
        worst_re = min(worst_re, float(val.real.min()))
        worst_im = max(worst_im, float(np.abs(val.imag).max()))
        sv_g, sv_h, sv_gh = ([np.linalg.svd(x, compute_uv=False) for x in blocks]
                             for blocks in (g, h, [gk @ hk for gk, hk in zip(g, h)]))
        lhs = _schatten_from_svals(alg, sv_gh, 1.0)
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            pe = as_exponent(p)
            rhs = (_schatten_from_svals(alg, sv_g, pe.value)
                   * _schatten_from_svals(alg, sv_h, pe.q))
            worst_holder_margin = min(worst_holder_margin, float((rhs - lhs).min()))
            holder_violations += int(np.sum(~within(lhs, rhs, 1e-9)))
    ok = worst_re >= -1e-10 and worst_im <= 1e-10 and holder_violations == 0
    return {"name": "pairing_and_holder", "trials": trials,
            "worst_re": worst_re, "worst_im": worst_im,
            "holder_violations": holder_violations,
            "worst_holder_margin": worst_holder_margin, "status": status(ok)}


def _unit_2norm(alg: TracedAlgebra, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Per-block stacks of X_t / ||X_t||_2, scaled as ``(1 / ||X||_2) * X`` scales
    one element."""
    inv = (1.0 / _stacked_schatten(alg, blocks, 2.0)).astype(complex)[:, None, None]
    return [inv * b for b in blocks]


def tail_projection_suite(trials: int, seed: int = 0) -> dict:
    """||W (I - P_{1/n})||_p is nonincreasing in n and hits 0 past the spectrum.

    Random PSD anchors carry controlled spectra: eigenvalues are either exact
    zeros or lie in [0.25, 3], so 1/n < 0.25 guarantees the tail vanishes.
    All anchors are drawn first, then checked as one stack per target: one
    ``eigh`` per block serves the eight thresholds, and one SVD per block
    all eight tails and the three exponents.  Each projection and norm is
    the one ``spectral_tail_projection`` and ``schatten_norm`` give alone.
    """
    _require_trials(trials, seed)
    pool = target_pool()
    draws: list[list] = [[] for _ in pool]
    for t, rng in enumerate(substreams(seed, trials)):
        alg = pool[t % len(pool)]
        spectrum = [0.0 if rng.random() < 0.3 else float(rng.uniform(0.25, 3.0))
                    for _ in range(alg.total_dim)]
        draws[t % len(pool)].append(random_psd_with_spectrum(alg, rng, spectrum).blocks)
    levels = [1.0 / n for n in range(1, 9)]
    monotone_failures = 0
    final_nonzero = 0
    worst_final = 0.0
    for alg, items in zip(pool, draws):
        if not items:
            continue
        w = [np.stack(blocks) for blocks in zip(*items)]
        proj, opn = _tail_projections(alg, w, levels)
        # W (I - P) of every (level, anchor), then one SVD per block
        svals = [np.linalg.svd(wk @ (np.eye(wk.shape[-1], dtype=complex) - pk),
                               compute_uv=False).reshape(-1, wk.shape[-1])
                 for wk, pk in zip(w, proj)]
        zero_tol = 1e-12 * (1.0 + opn)
        for p in (1.5, 2.0, 3.0):
            vals = _schatten_from_svals(alg, svals, p).reshape(len(levels), -1)
            monotone_failures += int(np.sum(~within(vals[1:], vals[:-1], 1e-12)))
            worst_final = max(worst_final, float(vals[-1].max()))
            final_nonzero += int(np.sum(vals[-1] > zero_tol))
    return {"name": "tail_projection", "trials": trials,
            "monotone_failures": monotone_failures,
            "final_nonzero": final_nonzero, "worst_final": worst_final,
            "status": status(monotone_failures == 0 and final_nonzero == 0)}


# -- numerical radius and the L^2 radius norm -------------------------------------------

def numerical_radius_suite(trials: int, seed: int = 0) -> dict:
    """w on the shift block, the operator-norm sandwich and the hermitian case.

    All samples are drawn first; then the w of each size's matrices M, their
    hermitian parts, adjoints and unitary conjugates come from one
    ``_nr_stack`` call on one C-contiguous stack per size, each value the one
    ``numerical_radius`` gives alone."""
    _require_trials(trials, seed)
    shift = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    w_shift = numerical_radius(shift)
    by_size: dict[int, list] = {}
    for t, rng in enumerate(substreams(seed, trials)):
        n = 2 + (t % 4)
        m = random_complex_matrix(rng, n, n)
        by_size.setdefault(n, []).append((m, random_complex_matrix(rng, n, n)))
    sandwich_failures = 0
    hermitian_defect = 0.0
    unitary_defect = 0.0
    for draws in by_size.values():
        m = np.stack([d[0] for d in draws])
        q = np.linalg.qr(np.stack([d[1] for d in draws]))[0]
        adj = m.conj().swapaxes(-1, -2)
        h = 0.5 * (m + adj)
        # one C-contiguous stack: each value has the bits of its matrix alone
        rows = np.concatenate([m, h, adj, q @ m @ q.conj().swapaxes(-1, -2)])
        wm, wh, wadj, wconj = _nr_stack(rows, 1024).reshape(4, -1)
        opn = np.linalg.svd(m, compute_uv=False)[:, 0]
        tol = 1e-9 * (1.0 + opn)
        sandwich_failures += int(np.sum(~((0.5 * opn - tol <= wm) & (wm <= opn + tol))))
        spectral_radius = np.abs(np.linalg.eigvalsh(h)).max(axis=1)
        hermitian_defect = max(hermitian_defect, float(np.abs(wh - spectral_radius).max()))
        # invariance under * and unitary conjugation
        unitary_defect = max(unitary_defect, float(np.abs(wadj - wm).max()),
                             float(np.abs(wconj - wm).max()))
    ok = abs(w_shift - 0.5) <= 1e-8 and sandwich_failures == 0 and hermitian_defect <= 1e-10
    return {"name": "numerical_radius", "trials": trials,
            "w_shift": w_shift, "sandwich_failures": sandwich_failures,
            "hermitian_defect": hermitian_defect, "unitary_defect": unitary_defect,
            "status": status(ok)}


def triple_norm_suite(samples: int, seed: int = 0) -> dict:
    """Exact anchors, the w(F) <= value <= ||F||_2 sandwich, and the
    constant-1 Cauchy-Schwarz in the radius norm on random positive maps.

    All samples are drawn first, and the Cauchy-Schwarz values of all the
    maps come from one ``_random_map_pairs`` call.  Per algebra, the
    sandwich elements, the left-hand sides and the PSD right-hand sides go
    through one ``_triple_norm_stack`` call, and the sandwich's w(F) through
    one ``_nr_elements`` call; each value is the one a call per element
    gives.  The algebras have unit weights, so
    |||F|||_2 = w(F) there, and the sandwich's lower side compares w on the
    1024-angle grid with w on a 512-angle one."""
    _require_trials(samples, seed)
    budget = SearchBudget(starts=4, iters=25, seed=seed)
    tr2 = TracedAlgebra([2])
    anchor_a, anchor_b = _triple_norm_stack(tr2, [tr2.diagonal([1.0, 0.0]), tr2.identity()],
                                            budget)
    algebras = [TracedAlgebra([2]), TracedAlgebra([3]), TracedAlgebra([4])]
    fs = [random_element(algebras[t % len(algebras)], rng)
          for t, rng in enumerate(substreams(seed + 1, samples))]
    draws = []
    for t, rng in enumerate(substreams(seed + 2, samples)):
        d = 1 + (t % 3)
        draws.append((algebras[t % len(algebras)], d, 1 + (t % 2),
                      int(rng.integers(0, 2 ** 62)), random_unit_vector(rng, d),
                      random_unit_vector(rng, d)))
    # Phi(x, y), Phi(x, x) and Phi(y, y) of every map, as evaluate gives them
    cs: list = [None] * samples
    for alg, (order, vals) in _random_map_pairs(draws).items():
        for j, i in enumerate(order):
            cs[i] = tuple(alg.element([v[j, r] for v in vals]) for r in range(3))
    sandwich_failures = 0
    worst_low = math.inf
    worst_high = -math.inf
    cs_failures = 0
    worst_cs = -math.inf
    for j, alg in enumerate(algebras):
        f_j, cs_j = fs[j::len(algebras)], cs[j::len(algebras)]
        n_f, n_cs = len(f_j), len(cs_j)
        full = _triple_norm_stack(alg, f_j + [c[r] for r in range(3) for c in cs_j], budget)
        for f, res, wf in zip(f_j, full, _nr_elements(f_j, 512).tolist()):
            up = schatten_norm(f, 2.0)
            worst_low = min(worst_low, res.value - wf)
            worst_high = max(worst_high, res.value - up)
            if not (wf - 1e-6 <= res.value <= up + 1e-9):
                sandwich_failures += 1
        lhs_res, rx, ry = (full[n_f + r * n_cs:n_f + (r + 1) * n_cs] for r in range(3))
        for lhs, x_res, y_res in zip(lhs_res, rx, ry):            # rhs PSD: exact knapsack
            rhs = math.sqrt(max(x_res.value, 0.0)) * math.sqrt(max(y_res.value, 0.0))
            worst_cs = max(worst_cs, lhs.value - rhs)
            if lhs.value > rhs + 1e-6:
                cs_failures += 1
    ok = (abs(anchor_a.value - 1.0) <= 1e-6 and abs(anchor_b.value - 1.0) <= 1e-6
          and sandwich_failures == 0 and cs_failures == 0)
    return {"name": "triple_norm", "anchor_diag10": anchor_a.value,
            "anchor_identity": anchor_b.value,
            "anchor_statuses": [anchor_a.status, anchor_b.status],
            "samples": samples, "sandwich_failures": sandwich_failures,
            "worst_low": worst_low, "worst_high": worst_high,
            "cs_failures": cs_failures, "worst_cs_excess": worst_cs,
            "status": status(ok)}


# -- operator-valued Cauchy-Schwarz -------------------------------------------------

def random_operator_valued(source: TracedAlgebra, target_dim: int, d: int,
                           rank: int, seed: int) -> OperatorValuedMap:
    # one draw in the order of a random_complex_matrix call per (factor, slot)
    z = rng_from(seed).standard_normal((rank, d, 2, target_dim, source.total_dim))
    return OperatorValuedMap.from_generator(source, z[:, :, 0] + 1j * z[:, :, 1])


def operator_valued_suite(instances: int, seed: int = 0, starts: int = 64,
                          iters: int = 12) -> dict:
    """Generator-form sweeps of the operator-norm Cauchy-Schwarz inequality.

    d = 1 instances must come out with ratio exactly 1 (the norms factor).
    Every check searches only its left-hand side and takes the exact
    right-hand side at T = I, so a counted violation is proven and no check
    is re-run.  All instances are drawn first; then the checks of each
    source shape (the d = 1 probes alternate two, the main instances two
    more) go through one ``_check_cs_stack`` call: each instance's pool is
    drawn once, and each target norm ranks every pool and climbs every chain
    of the shape as one stack.  Each report is the one a check per instance
    gives.
    """
    _require_trials(instances, seed)
    out: dict = {"name": "operator_valued", "instances": instances, "starts": starts}
    norms = ("nr", "triple2")
    probes: list[list] = [[], []]
    for t, rng in enumerate(substreams(seed, 8)):
        source = TracedAlgebra([2]) if t % 2 == 0 else TracedAlgebra([2, 1], [1.0, 0.5])
        phi = random_operator_valued(source, 2, 1, 1 + t % 2,
                                     int(rng.integers(0, 2 ** 62)))
        a = complex(rng.standard_normal() + 1j * rng.standard_normal())
        scale = float(rng.uniform(0.5, 2.0))
        probes[t % 2].append((t, phi, np.array([a]), np.array([scale * a]),
                              SearchBudget(starts=8, iters=8, seed=seed)))
    shapes: list[list] = [[], []]
    for t, rng in enumerate(substreams(seed + 17, instances)):
        source = TracedAlgebra([2]) if t % 2 == 0 else TracedAlgebra([3])
        n = 2 if t % 2 == 0 else 3
        d = 2 + (t % 2)
        phi = random_operator_valued(source, n, d, 1 + (t % 2),
                                     int(rng.integers(0, 2 ** 62)))
        x = random_unit_vector(rng, d)
        y = random_unit_vector(rng, d)
        shapes[t % 2].append((t, phi, x, y, SearchBudget(starts=starts, iters=iters,
                                                         seed=seed + t)))

    def check(groups: list[list], targets: Sequence[str]) -> dict:
        """Reports by (norm, t), one stacked check per nonempty group."""
        reps = {}
        for group in filter(None, groups):
            ts, phis, xs, ys, budgets = zip(*group)
            for norm, rows in _check_cs_stack(phis, xs, ys, budgets, targets).items():
                reps.update(((norm, t), rep) for t, rep in zip(ts, rows))
        return reps

    d1 = check(probes, ("nr",))
    exact_defect = 0.0
    for t in range(8):
        exact_defect = max(exact_defect, abs(d1["nr", t].ratio - 1.0))
    out["d1_ratio_defect"] = exact_defect
    for norm in norms:
        out[norm] = {"violations": 0, "max_ratio": 0.0}
    reps = check(shapes, norms)
    for t in range(instances):
        for norm in norms:
            rep = reps[norm, t]
            if math.isfinite(rep.ratio):
                out[norm]["max_ratio"] = max(out[norm]["max_ratio"], rep.ratio)
            if rep.status == VIOLATED:
                out[norm]["violations"] += 1
    ok = exact_defect <= 1e-10 and all(out[norm]["violations"] == 0 for norm in norms)
    out["status"] = status(ok)
    return out


# -- GNS ------------------------------------------------------------------------------

def random_positive_linear_map(domain: StarAlgebra, target: TracedAlgebra,
                               rank: int, rng: np.random.Generator) -> list:
    """omega(a) = sum_r B_r* L(a) B_r blockwise, positive by construction.

    L is left multiplication in basis coordinates; both builtin domains make
    L(a*) = L(a)* (matrix units are Hilbert-Schmidt orthonormal, the cyclic
    shift is unitary), so omega(a* a) is PSD.
    """
    d = domain.dim
    bs = [[random_complex_matrix(rng, d, n) for n in target.block_sizes]
          for _ in range(rank)]
    values = []
    for i in range(d):
        lam = domain.left_mult_matrix(domain.basis_vector(i))
        blocks = []
        for kb in range(len(target.block_sizes)):
            acc = sum(bs[r][kb].conj().T @ lam @ bs[r][kb] for r in range(rank))
            blocks.append(acc)
        values.append(target.element(blocks))
    return values


def gns_suite(per_domain: int, seed: int = 0) -> dict:
    """Random positive linear maps on the builtin domains plus exact anchors."""
    _require_trials(per_domain, seed)
    scal = TracedAlgebra([1])
    m2 = matrix_algebra(2)
    domains = [("matrix_algebra(2)", m2, TracedAlgebra([2])),
               ("matrix_algebra(3)", matrix_algebra(3), TracedAlgebra([1])),
               ("cyclic_group_algebra(4)", cyclic_group_algebra(4), TracedAlgebra([2]))]
    worst = {"reconstruction": 0.0, "multiplicativity": 0.0, "adjointness": 0.0}
    cyclic_failures = 0
    count = 0
    for name, dom, target in domains:
        for rng in substreams(seed + dom.dim, per_domain):
            omega = random_positive_linear_map(dom, target, rank=2, rng=rng)
            rep = gns_construct(omega, dom, target)
            vr = verify_representation(rep, trials=20, seed=int(rng.integers(0, 2 ** 62)))
            worst["reconstruction"] = max(worst["reconstruction"], rep.residuals["reconstruction"],
                                          vr.reconstruction)
            worst["multiplicativity"] = max(worst["multiplicativity"],
                                            rep.residuals["multiplicativity"],
                                            vr.multiplicativity)
            worst["adjointness"] = max(worst["adjointness"], rep.residuals["adjointness"],
                                       vr.adjointness)
            if not vr.cyclic:
                cyclic_failures += 1
            count += 1
    # exact anchors: omega(a) = a_11 has quotient dim 2; the algebra trace is faithful
    omega_a11 = [scal.element([np.array([[1.0 if i == 0 else 0.0]], dtype=complex)])
                 for i in range(4)]
    rep_a11 = gns_construct(omega_a11, m2, scal)
    omega_tr = [scal.element([np.array([[1.0 if i in (0, 3) else 0.0]], dtype=complex)])
                for i in range(4)]
    rep_tr = gns_construct(omega_tr, m2, scal)
    ok = (worst["reconstruction"] <= 1e-10 and worst["multiplicativity"] <= 1e-9
          and worst["adjointness"] <= 1e-9 and cyclic_failures == 0
          and rep_a11.quotient_dim == 2 and rep_tr.quotient_dim == 4)
    return {"name": "gns", "instances": count, "worst": worst,
            "cyclic_failures": cyclic_failures,
            "a11_quotient_dim": rep_a11.quotient_dim,
            "trace_quotient_dim": rep_tr.quotient_dim,
            "status": status(ok)}


def gns_status(rep: GnsRepresentation, ver: VerificationReport) -> str:
    """Status of one GNS construction from its residuals and Lambda(e)'s cyclicity."""
    return status(rep.residuals["reconstruction"] <= 1e-9 and ver.cyclic
                  and rep.residuals["multiplicativity"] <= 1e-9
                  and rep.residuals["adjointness"] <= 1e-9)


# -- kernel families ------------------------------------------------------------------

def kernel_bound_suite(km: KernelMap, trials: int, seed: int = 0) -> dict:
    """The closed-form norm bounds, left invariance and positivity of a
    kernel family (``bound_checks``), with their status."""
    _require_trials(trials, seed)
    rep = bound_checks(km, trials=trials, seed=seed)
    ok = (rep.nr_bound_failures == 0 and rep.triple_bound_failures == 0
          and rep.invariance_residual <= 1e-9 and rep.positivity_status != VIOLATED)
    return {"name": "kernel_bounds", "trials": rep.trials,
            "nr_bound_failures": rep.nr_bound_failures,
            "triple_bound_failures": rep.triple_bound_failures,
            "max_nr_ratio": rep.max_nr_ratio,
            "max_triple_ratio": rep.max_triple_ratio,
            "invariance_residual": rep.invariance_residual,
            "positivity": rep.positivity_status,
            "min_diag_eig": rep.min_diag_eig,
            "status": status(ok)}
