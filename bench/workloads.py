"""The benchmark's three workloads and the checks on their outputs.

A workload is a pool of rounds built from the seed; a round is a fixed mix
of tasks, so every run measures the same mix whatever its length, and the
median and 90th percentile always fall inside the same group of tasks.  A
task's ``run`` makes the package calls and returns what they produced; its
``check`` compares that with the oracles after the round, outside the
timed region.

Each problem a check finds has a kind: ``number`` (an output disagrees
with its oracle), ``contract`` (an exit code, exception or byte-for-byte
repeat the documentation promises did not happen) or ``flag`` (a verdict
the maths decides came out wrong).  Any problem fails the task.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import oracles as O

TWO_PI = 2.0 * np.pi


class Verdict:
    """Problems found in one task's output."""

    __slots__ = ("problems", "degenerate", "flag_false")

    def __init__(self):
        self.problems: list[tuple[str, str]] = []
        self.degenerate = False
        self.flag_false = 0

    def need(self, kind: str, ok, what: str) -> bool:
        if not ok:
            self.problems.append((kind, what))
        return bool(ok)


class Task:
    __slots__ = ("label", "run", "check")

    def __init__(self, label: str, run, check):
        self.label, self.run, self.check = label, run, check


def run_round(tasks, between=None) -> tuple[list[float], list[float], list[Verdict]]:
    """Run the tasks in order, closed loop; then check every output.

    ``between``, if given, is called after each task, outside its timing.
    Returns each task's start time and latency and each task's verdict.
    An exception a task did not expect is its output.
    """
    starts, latencies, outputs = [], [], []
    clock = time.perf_counter
    for task in tasks:
        t0 = clock()
        try:
            out = task.run()
        except Exception as exc:  # the check reports it as a broken contract
            out = exc
        latencies.append(clock() - t0)
        starts.append(t0)
        outputs.append(out)
        if between is not None:
            between()
    verdicts = []
    for task, out in zip(tasks, outputs):
        v = Verdict()
        if isinstance(out, Exception):
            v.need("contract", False, f"{task.label}: raised {out!r}")
        else:
            try:
                task.check(out, v)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                v.need("contract", False, f"{task.label}: unreadable output ({exc!r})")
        verdicts.append(v)
    return starts, latencies, verdicts


# ------------------------------------------------------------------ channel


def _check_images(out, lam, x, v: Verdict, label: str) -> None:
    d = x.shape[0]
    atol = O.tol(d, np.max(np.abs(x)))
    v.need("number", O.close(out["kraus"], O.channel_image(lam, x), atol), f"{label}: apply_kraus")
    v.need("number", O.close(out["adjoint"], O.channel_image(lam, x, adjoint=True), atol),
           f"{label}: apply_adjoint")
    lhs, rhs = np.vdot(x, out["kraus"]), np.vdot(out["adjoint"], x)
    v.need("number", abs(lhs - rhs) <= O.tol(d * d, np.max(np.abs(x)) ** 2),
           f"{label}: adjoint identity")
    v.need("number", O.close(out["uniform"], O.uniform_image(x), atol), f"{label}: apply_uniform")
    v.need("number", O.close(out["mixed"], O.mixed_permutation_image(x), atol),
           f"{label}: apply_mixed_permutation")


def _check_spectra(spec, alpha, pt, eb, lam, v: Verdict, label: str, eb_tol: float) -> None:
    d = len(lam)
    ok, atol = O.natural_spectrum_ok(spec["eigenvalues"], lam)
    v.need("number", ok, f"{label}: channel_spectrum eigenvalues")
    predicted = d * O.fourier_coeffs(lam)
    for target, key in ((1.0, "multiplicity_of_one"), (0.0, "multiplicity_of_zero")):
        count = O.count_near(predicted, target, 1e-8)
        if count is not None:
            v.need("flag", spec[key] == d * count, f"{label}: {key}")
    v.need("number", O.close(alpha, O.fourier_coeffs(lam), O.tol(d)), f"{label}: fourier coeffs")
    v.need("number", O.close(pt, O.choi_pt_spectrum(lam), atol), f"{label}: choi_pt_spectrum")
    expected = O.entanglement_breaking(lam, eb_tol)
    if expected is not None:
        v.need("flag", eb == expected, f"{label}: is_entanglement_breaking")


def channel_task(cc, lam, x, full: bool) -> Task:
    d = lam.size
    label = f"channel.{'report' if full else 'image'}.d{d}"

    def run():
        ch = cc.channels
        w = ch.as_weights(lam)
        out = {
            "w": w,
            "kraus": ch.apply_kraus(w, x),
            "adjoint": ch.apply_adjoint(w, x),
            "uniform": ch.apply_uniform(x),
            "mixed": ch.apply_mixed_permutation(x),
        }
        if full:
            spec = ch.channel_spectrum(w)
            out["spec"] = {
                "eigenvalues": spec.eigenvalues,
                "multiplicity_of_one": spec.multiplicity_of_one,
                "multiplicity_of_zero": spec.multiplicity_of_zero,
            }
            out["alpha"] = ch.weight_fourier_coeffs(w)
            out["pt"] = ch.choi_pt_spectrum(w)
            out["eb"] = ch.is_entanglement_breaking(w)
        return out

    def check(out, v: Verdict):
        v.need("number", O.close(out["w"], lam, O.tol(d)), f"{label}: as_weights")
        _check_images(out, lam, x, v, label)
        if full:
            _check_spectra(out["spec"], out["alpha"], out["pt"], out["eb"], lam, v, label, 1e-10)

    return Task(label, run, check)


SMALL_D = (2, 3, 4, 5, 6, 8)


def channel_round(cc, rng, smoke: bool) -> list[Task]:
    """74 tasks: two reports at each small d for each weight kind, plus the
    large-d tasks: 10 reports at d = 16 (Dirichlet six times, each other
    kind once), one Dirichlet report each at d = 24 and 32, and Dirichlet
    images at d = 64 and 128.

    The counts put each percentile in the middle of a block of similar
    tasks, never on the edge between two: the median falls among the d = 5
    reports, the 90th percentile among the Dirichlet, sparse and uniform
    d = 16 reports, below the near-uniform d = 16 report and the four
    largest tasks.
    """
    tasks = []
    for d in SMALL_D:
        for kind in O.WEIGHT_KINDS * 2:
            tasks.append(channel_task(cc, O.random_weights(rng, d, kind), O.random_state(rng, d), True))
    big = [(16, kind, True) for kind in O.WEIGHT_KINDS + ("dirichlet",) * 5]
    big += [(24, "dirichlet", True), (32, "dirichlet", True)]
    big += [(64, "dirichlet", False), (128, "dirichlet", False)]
    if smoke:
        big = [(9, kind, full) for _, kind, full in big]
    for d, kind, full in big:
        tasks.append(channel_task(cc, O.random_weights(rng, d, kind), O.random_state(rng, d), full))
    return [tasks[i] for i in rng.permutation(len(tasks))]


# ------------------------------------------------------------------- states


def coherence_task(cc, rho, p: int) -> Task:
    d = rho.shape[0]
    label = f"states.coherence_report.d{d}.p{p}"

    def run():
        return cc.coherence.coherence_report(rho, p)

    def check(rep, v: Verdict):
        expect = O.coherence_chain(rho, p)
        got = (rep.c_rho, rep.c_phi, rep.c_delta)
        atol = O.tol(d * d, max(expect))
        v.need("number", rep.p == p and O.close(got, expect, atol), f"{label}: values")
        v.need("number", got[0] >= got[1] - atol and got[1] >= got[2] - atol, f"{label}: chain order")

    return Task(label, run, check)


def sweep_task(cc, phi: float, thetas, p: int) -> Task:
    label = f"states.coherence_sweep.p{p}"

    def run():
        return cc.coherence.coherence_sweep(phi, thetas, p)

    def check(rows, v: Verdict):
        v.need("number", O.close(rows, O.sweep_rows(phi, thetas, p), O.tol(9)), f"{label}: rows")

    return Task(label, run, check)


def check_canonical(psi, canon, report: dict, v: Verdict, label: str) -> None:
    """Canonical tuple against the original: equal consecutive overlaps of
    modulus mean|<psi_k|psi_k+1>| (AM-GM), the invariant's argument kept,
    and both report flags true, which the maths guarantees.

    The tuple is refactored from a Gram matrix whose eigenvalues below the
    documented rank tolerance 1e-10 are dropped, so vector-level checks
    allow n * 1e-10.
    """
    n = psi.shape[0]
    factors = O.consecutive_overlaps(psi)
    inv = complex(np.prod(factors))
    mean_mod = float(np.mean(np.abs(factors)))
    atol = n * 1e-10 + O.tol(n)
    rel = O.tol(n, k=1024.0)
    v.need("number", canon.shape[0] == n, f"{label}: tuple length")
    v.need("number", O.close(np.linalg.norm(canon, axis=1), np.ones(n), atol), f"{label}: unit rows")
    g = O.consecutive_overlaps(canon)
    v.need("number", O.close(g, np.full(n, g.mean()), atol), f"{label}: equal overlaps")
    v.need("number", O.close(np.abs(g), np.full(n, mean_mod), atol), f"{label}: overlap modulus")
    v.need("number", abs(report["common"] - g.mean()) <= atol, f"{label}: common_inner_product")
    v.need("number", abs(report["original"] - inv) <= rel * abs(inv), f"{label}: original invariant")
    canon_inv = complex(np.prod(g))
    v.need("number", abs(report["canonical"] - canon_inv) <= rel * abs(canon_inv),
           f"{label}: canonical invariant")
    v.need("number", O.wrapped_angle(np.angle(canon_inv), np.angle(inv)) <= n * atol / mean_mod,
           f"{label}: argument kept")
    for key in ("arg_match", "modulus_bound_holds"):
        if not v.need("flag", report[key] is True, f"{label}: {key} false"):
            v.flag_false += 1


def check_degenerate(psi, v: Verdict, label: str) -> None:
    """A DegenerateInvariantError is the documented answer when the
    invariant vanishes; it is counted, and it breaks the contract only when
    the invariant is far above the package's 1e-12 threshold."""
    v.degenerate = True
    inv = abs(np.prod(O.consecutive_overlaps(psi)))
    v.need("contract", inv <= 1e-9, f"{label}: degenerate raised at |invariant| {inv:.3e}")


def canonicalize_task(cc, psi, generic: bool = False) -> Task:
    n, d = psi.shape
    label = f"states.canonicalize.{'generic.' if generic else ''}n{n}.d{d}"

    def run():
        try:
            return cc.bargmann.canonicalize(psi)
        except cc.bargmann.DegenerateInvariantError as exc:
            return ("degenerate", exc)

    def check(out, v: Verdict):
        if isinstance(out[0], str):
            check_degenerate(psi, v, label)
            return
        canon, rep = out
        report = {
            "original": rep.original_invariant,
            "canonical": rep.canonical_invariant,
            "common": rep.common_inner_product,
            "arg_match": rep.arg_match,
            "modulus_bound_holds": rep.modulus_bound_holds,
        }
        check_canonical(psi, canon, report, v, label)

    return Task(label, run, check)


def bipartite_task(cc, da: int, db: int, seed: int) -> Task:
    label = f"states.bipartite.{da}x{db}"
    uni_a, uni_b = np.full(da, 1.0 / da), np.full(db, 1.0 / db)

    def run():
        bp, dims = cc.bipartite, (da, db)
        rho = bp.random_entangled_state(da, db, seed=seed)
        image = bp.apply_uniform_A(rho, dims)
        return {
            "rho": rho,
            "before": bp.ppt_check(rho, dims),
            "image": image,
            "after": bp.ppt_check(image, dims),
            "both": bp.apply_uniform_AB(rho, dims),
            "weighted_a": bp.apply_weighted(rho, dims, uni_a, None),
            "weighted_ab": bp.apply_weighted(rho, dims, uni_a, uni_b),
        }

    def check(out, v: Verdict):
        n = da * db
        rho, atol = out["rho"], O.tol(n)
        v.need("number", O.close(rho, rho.conj().T, atol) and abs(np.trace(rho) - 1) <= atol,
               f"{label}: sampled state")
        lo = O.min_pt_eigenvalue(rho, da, db)
        v.need("contract", lo < -1e-10, f"{label}: sampled state is PPT ({lo:.3e})")
        v.need("number", abs(out["before"].min_eigenvalue - lo) <= atol, f"{label}: input PT minimum")
        v.need("flag", out["before"].is_ppt is False, f"{label}: input is_ppt")
        image = O.local_image(rho, da, db, uni_a)
        v.need("number", O.close(out["image"], image, atol), f"{label}: apply_uniform_A")
        v.need("number", O.block_circulant(out["image"], da, db, atol), f"{label}: block circulant")
        after = O.min_pt_eigenvalue(out["image"], da, db)
        v.need("number", abs(out["after"].min_eigenvalue - after) <= atol, f"{label}: output PT minimum")
        # The image of an entanglement-breaking channel is separable, hence PPT;
        # at dA dB <= 6 the test is also decisive.
        v.need("flag", out["after"].is_ppt is True, f"{label}: output is_ppt")
        both = O.local_image(rho, da, db, uni_a, uni_b)
        v.need("number", O.close(out["both"], both, atol), f"{label}: apply_uniform_AB")
        v.need("number", O.close(out["weighted_a"], image, atol), f"{label}: apply_weighted A")
        v.need("number", O.close(out["weighted_ab"], both, atol), f"{label}: apply_weighted AB")

    return Task(label, run, check)


COHERENCE_D = (3, 8, 32, 64)
CANON_SHAPES = ((3, 3), (4, 2), (6, 4), (10, 3), (16, 4), (32, 8), (64, 8))
BIPARTITE_DIMS = ((2, 2), (2, 3), (3, 3), (2, 4), (4, 4), (8, 8))
HEAVY_CANON = 6
SWEEP_CHUNK = 64


def log_uniform_eps(rng, lo: float = 1e-5, hi: float = 0.3, strata: int = 1, j: int = 0) -> float:
    """Log-uniform draw in [lo, hi], from stratum j of ``strata`` equal parts."""
    u = (j + rng.random()) / strata
    return float(10.0 ** (np.log10(lo) + u * (np.log10(hi) - np.log10(lo))))


def states_round(cc, rng, smoke: bool) -> list[Task]:
    """33 tasks: 8 coherence reports, 4 sweep chunks, 6 bipartite erasures
    and 15 canonicalizations: 7 small and 6 heavy (n = 128, d = 8) tuples
    drawn around a common vector, and two generic tuples, (16, 4) and
    (32, 8), whose invariant is small enough at (32, 8) for the package's
    absolute 1e-12 threshold to call it degenerate.

    The heavy canonicalizations are the top 18% of tasks and hold the 90th
    percentile; their perturbations are stratified over the log range so
    every round holds the same spread, down to the near-parallel tuples
    whose modulus flag the package gets wrong.  The median falls among the
    (32, 8) tuples drawn around a common vector."""
    tasks = []
    for d in COHERENCE_D:
        for p in (1, 2):
            tasks.append(coherence_task(cc, O.random_state(rng, 3 if smoke else d), p))
    grid = np.linspace(0.0, np.pi, 4 * SWEEP_CHUNK)
    phi = float(rng.uniform(0, TWO_PI))
    for c in range(4):
        tasks.append(sweep_task(cc, phi, grid[c * SWEEP_CHUNK:(c + 1) * SWEEP_CHUNK], 1 + c % 2))
    for n, d in CANON_SHAPES:
        tasks.append(canonicalize_task(cc, O.state_tuple(rng, n, d, log_uniform_eps(rng))))
    n, d = (16, 4) if smoke else (128, 8)
    for j in range(HEAVY_CANON):
        eps = log_uniform_eps(rng, strata=HEAVY_CANON, j=j)
        tasks.append(canonicalize_task(cc, O.state_tuple(rng, n, d, eps)))
    for n, d in ((16, 4), (8, 3) if smoke else (32, 8)):
        tasks.append(canonicalize_task(cc, O.generic_tuple(rng, n, d), generic=True))
    for da, db in BIPARTITE_DIMS[:3] if smoke else BIPARTITE_DIMS:
        tasks.append(bipartite_task(cc, da, db, int(rng.integers(2**31))))
    return [tasks[i] for i in rng.permutation(len(tasks))]


# ---------------------------------------------------------------------- cli


def _dump_matrix(x) -> str:
    return json.dumps({
        "rows": x.shape[0], "cols": x.shape[1],
        "re": x.real.ravel().tolist(), "im": x.imag.ravel().tolist(),
    })


def _load_matrix(obj) -> np.ndarray:
    return (np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)).reshape(
        obj["rows"], obj["cols"]
    )


def _load_vector(obj) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


FILE = "{file}"


class Request:
    """One command line, the text of the input file it reads, if any, and
    the check on its result.  ``FILE`` in ``argv`` stands for that file's
    path until the file is written."""

    __slots__ = ("label", "argv", "text", "check")

    def __init__(self, label, argv, text, check):
        self.label, self.argv, self.text, self.check = label, argv, text, check


def _expect_ok(result, v: Verdict, label: str) -> bool:
    code, out, err = result
    return v.need("contract", code == 0 and out.endswith("\n"), f"{label}: exit {code} ({err.strip()[:120]})")


def req_channel_apply(rng, d: int, uniform: bool) -> Request:
    x = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / d
    lam = np.full(d, 1.0 / d) if uniform else O.random_weights(rng, d, "dirichlet" if d > 8 else "sparse")
    spec = "uniform" if uniform else _csv(lam)
    label = f"cli.channel_apply.d{d}"

    def check(result, v: Verdict):
        if _expect_ok(result, v, label):
            got = _load_matrix(json.loads(result[1]))
            expect = O.channel_image(O.normalized(lam), x)
            v.need("number", O.close(got, expect, O.tol(d, np.max(np.abs(x)))), f"{label}: image")

    return Request(label, ["channel", "apply", FILE, "--weights", spec], _dump_matrix(x), check)


def req_channel_spectrum(rng, d: int, kind: str) -> Request:
    lam = O.random_weights(rng, d, kind)
    label = f"cli.channel_spectrum.d{d}.{kind}"

    def check(result, v: Verdict):
        if _expect_ok(result, v, label):
            obj = json.loads(result[1])
            w = O.normalized(lam)
            spec = dict(obj["channel_spectrum"])
            spec["eigenvalues"] = _load_vector(spec["eigenvalues"])
            _check_spectra(spec, _load_vector(obj["alpha"]), np.array(obj["choi_pt_spectrum"]),
                           obj["is_entanglement_breaking"], w, v, label, 1e-10)

    return Request(label, ["channel", "spectrum", "--weights", _csv(lam)], None, check)


def req_sweep(rng, fmt: str, p: int, digits: int | None) -> Request:
    phi = float(rng.uniform(0, TWO_PI))
    steps = int(rng.choice((96, 128, 160)))
    label = f"cli.coherence_sweep.{fmt}"
    argv = ["coherence", "sweep", "--phi", repr(phi), "--steps", str(steps), "--p", str(p),
            "--format", fmt]
    if digits is not None:
        argv += ["--digits", str(digits)]

    def check(result, v: Verdict):
        if not _expect_ok(result, v, label):
            return
        text = result[1]
        if fmt == "csv":
            lines = text.splitlines()
            v.need("contract", lines[0] == "theta,c_rho,c_phi,c_delta", f"{label}: header")
            rows = np.array([[float(t) for t in ln.split(",")] for ln in lines[1:]])
        else:
            keys = ("theta", "c_rho", "c_phi", "c_delta")
            rows = np.array([[r[k] for k in keys] for r in json.loads(text)])
        expect = O.sweep_rows(phi, np.linspace(0.0, np.pi, steps), p)
        atol = O.tol(9) if digits is None else 10.0 ** (1 - digits)
        v.need("number", O.close(rows, expect, atol), f"{label}: rows")

    return Request(label, argv, None, check)


def req_canon(rng, n: int, d: int) -> Request:
    psi = O.state_tuple(rng, n, d, log_uniform_eps(rng))
    label = f"cli.bargmann_canon.n{n}.d{d}"
    text = json.dumps([{"re": row.real.tolist(), "im": row.imag.tolist()} for row in psi])

    def check(result, v: Verdict):
        code = result[0]
        if code == 3:
            check_degenerate(psi, v, label)
            return
        if not _expect_ok(result, v, label):
            return
        obj = json.loads(result[1])
        rep = obj["report"]
        canon = np.array([_load_vector(r) for r in obj["canonical"]])
        report = {
            "original": complex(rep["original_invariant"]["re"], rep["original_invariant"]["im"]),
            "canonical": complex(rep["canonical_invariant"]["re"], rep["canonical_invariant"]["im"]),
            "common": complex(rep["common_inner_product"]["re"], rep["common_inner_product"]["im"]),
            "arg_match": rep["arg_match"],
            "modulus_bound_holds": rep["modulus_bound_holds"],
        }
        check_canonical(psi, canon, report, v, label)

    return Request(label, ["bargmann", "canon", FILE], text, check)


def req_bipartite(rng, da: int, db: int) -> Request:
    seed = int(rng.integers(2**31))
    label = f"cli.bipartite_demo.{da}x{db}"

    def check(result, v: Verdict):
        if _expect_ok(result, v, label):
            obj = json.loads(result[1])
            v.need("contract", obj["dims"] == {"dA": da, "dB": db} and obj["seed"] == seed,
                   f"{label}: echo")
            v.need("number", obj["input"]["min_eigenvalue"] < -1e-10, f"{label}: input PT minimum")
            v.need("flag", obj["input"]["is_ppt"] is False, f"{label}: input is_ppt")
            v.need("flag", obj["output"]["is_ppt"] is True, f"{label}: output is_ppt")

    return Request(label, ["bipartite", "demo", str(da), str(db), "--seed", str(seed)], None, check)


def _malformed(i: int) -> tuple[list[str], str | None]:
    m3 = _dump_matrix(np.eye(3) / 3)
    cases = [
        (["channel", "apply", FILE, "--weights", "uniform"], "{not json"),
        (["channel", "apply", FILE, "--weights", "uniform"],
         json.dumps({"rows": 2, "cols": 3, "re": [0.0] * 6, "im": [0.0] * 6})),
        (["channel", "apply", FILE, "--weights", "0.5,-0.2,0.7"], m3),
        (["channel", "apply", FILE, "--weights", "0.5,0.5"], m3),
        (["channel", "spectrum", "--weights", "uniform"], None),
        (["coherence", "sweep", "--phi", "0.1", "--steps", "1"], None),
        (["coherence", "sweep", "--phi", "abc", "--steps", "10"], None),
        (["bargmann", "canon", FILE], json.dumps([{"re": [1.0, 1.0], "im": [0.0, 0.0]}])),
    ]
    return cases[i % len(cases)]


def req_malformed(i: int) -> Request:
    argv, text = _malformed(i)
    label = f"cli.malformed.{i % 8}"

    def check(result, v: Verdict):
        code, out, err = result
        v.need("contract", code == 2 and out == "" and err.count("\n") == 1,
               f"{label}: exit {code}, {len(out)} bytes on stdout")

    return Request(label, argv, text, check)


def cli_round(rng, index: int, smoke: bool) -> list[Request]:
    """20 requests: channel apply at d = 8 (2) and d = 64 (3), channel
    spectrum (2), coherence sweep in csv and json (2 each), bargmann canon
    (3), bipartite demo 2 3 and 3 3 (1 each) and 4 malformed inputs."""
    big = 12 if smoke else 64
    reqs = [
        req_channel_apply(rng, 8, False),
        req_channel_apply(rng, 8, False),
        req_channel_apply(rng, big, True),
        req_channel_apply(rng, big, False),
        req_channel_apply(rng, big, False),
        req_channel_spectrum(rng, 6, O.WEIGHT_KINDS[index % 5]),
        req_channel_spectrum(rng, 8, O.WEIGHT_KINDS[(index + 2) % 5]),
        req_sweep(rng, "csv", 1, None),
        req_sweep(rng, "csv", 2, 12),
        req_sweep(rng, "json", 1, None),
        req_sweep(rng, "json", 2, None),
        req_canon(rng, 5, 3),
        req_canon(rng, 12, 4),
        req_canon(rng, 24, 4),
        req_bipartite(rng, 2, 3),
        req_bipartite(rng, 3, 3),
    ]
    reqs += [req_malformed(4 * index + k) for k in range(4)]
    return [reqs[i] for i in rng.permutation(len(reqs))]


class CliRunner:
    """Runs requests as subprocesses or in-process, one at a time.

    Input files live in a directory of their own under the checkout, one
    set per pool round, written at setup.  Every request's stdout must
    repeat byte for byte whenever the same request runs again, in either
    mode.
    """

    def __init__(self, cc, root, env, workdir):
        self.cc, self.root, self.env, self.workdir = cc, root, env, workdir
        self.outputs: dict[tuple, str] = {}
        self.bytes_in = 0
        self.bytes_out = 0

    def write_files(self, pool) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        for r, reqs in enumerate(pool):
            for q, req in enumerate(reqs):
                if req.text is not None:
                    path = os.path.join(self.workdir, f"r{r}q{q}.json")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(req.text)
                    req.argv = [path if a == FILE else a for a in req.argv]

    def remove_files(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.workdir))  # only when no other run uses it

    def subprocess(self, argv) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "circulant_channels", *argv],
            capture_output=True, text=True, env=self.env, cwd=self.root, timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def inprocess(self, argv) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cc.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def tasks(self, reqs, inprocess: bool) -> list[Task]:
        call = self.inprocess if inprocess else self.subprocess
        tasks = []
        for req in reqs:
            def run(req=req):
                return call(req.argv)

            def check(result, v: Verdict, req=req):
                digest = hashlib.sha256(result[1].encode()).hexdigest()
                first = self.outputs.setdefault(tuple(req.argv), digest)
                v.need("contract", first == digest, f"{req.label}: stdout differs from an earlier run")
                self.bytes_out += len(result[1].encode())
                self.bytes_in += len(req.text.encode()) if req.text is not None else 0
                req.check(result, v)

            tasks.append(Task(req.label, run, check))
        return tasks
