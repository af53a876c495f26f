"""The row-slab driver (grid._row_slabs) and the kernels that run on it give
the same bits on one worker and on two: every range writes its own rows, a
range keeps at most its own rows' maxima, and every sum stays whole on the
calling thread."""

import json
import os
import sys
import threading
import time
import weakref

import numpy as np
import pytest

import semigeo.grid
from semigeo.cli import main
from semigeo.coriolis import coriolis_transport_data, linear_coriolis
from semigeo.divcurl import (
    _matvec,
    apply_operator,
    invert_3x3,
    reduce_to_darcy,
    solve_darcy,
    verify_estimate,
)
from semigeo.grid import (
    GridSpec,
    NonFiniteError,
    TensorField,
    VectorField,
    _jacobian_magnitude,
    _third_derivative_magnitude,
    curl,
    eigmin_symmetric,
    gradient,
    hessian,
    jacobian,
    lp_norm,
    min_hessian_eigenvalue,
)
from semigeo.stepper import (
    _difference_row_maxima,
    compute_constants,
    init_state,
    step,
    transport_data,
)

from conftest import (
    row_major,
    row_major_curl,
    row_major_gradient_values,
    row_major_invert_3x3,
    row_major_matvec,
    whole_grid_darcy_rhs,
    whole_grid_hessian,
    whole_grid_hoelder_quotient,
)

# a last 8-row slab of one and of two rows; and five rows in ranges of three
# and two, so the range boundary falls inside both 4-row one-sided ends of
# the second difference along axis 0
GRIDS = pytest.mark.parametrize("dims", [(9, 6, 7), (18, 5, 6), (5, 6, 7)],
                                ids=["odd-rows", "three-slabs", "split-end-stencil"])


def on_main():
    return threading.current_thread() is threading.main_thread()


class TestDriver:
    def ranges(self, n0, rows=None):
        seen = []
        semigeo.grid._row_slabs(lambda i0, i1: seen.append((i0, i1, on_main())), n0, rows)
        return sorted(seen)

    def test_two_workers_split_the_ranges(self, workers):
        workers(2)
        assert self.ranges(18, 8) == [(0, 8, True), (8, 16, True), (16, 18, False)]
        assert self.ranges(9) == [(0, 5, True), (5, 9, False)]

    def test_one_worker_runs_every_range_here(self, workers):
        workers(1)
        assert self.ranges(18, 8) == [(0, 8, True), (8, 16, True), (16, 18, True)]
        assert self.ranges(9) == [(0, 9, True)]

    def test_two_workers_from_forty_rows(self, monkeypatch):
        monkeypatch.setattr(semigeo.grid, "_WORKERS", 2)
        assert self.ranges(39) == [(0, 39, True)]
        assert self.ranges(48) == [(0, 24, True), (24, 48, False)]

    def test_worker_holds_nothing_after_the_call(self, workers):
        # a job's arrays must not outlive the call that made them
        workers(2)
        out = np.zeros(9)
        ref = weakref.ref(out)

        def fill(i0, i1, out=out):
            out[i0:i1] = 1.0

        semigeo.grid._row_slabs(fill, 9)
        assert np.all(out == 1.0)
        del fill, out
        assert ref() is None

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_error_raised_once_both_halves_ran(self, workers, failing):
        workers(2)
        done = []

        def fn(i0, i1):
            if on_main() == (failing == "caller"):
                raise ValueError(f"range {i0}..{i1}")
            time.sleep(0.05)
            done.append(i0)

        with pytest.raises(ValueError, match="range 5..9" if failing == "worker" else "range 0..5"):
            semigeo.grid._row_slabs(fn, 9)
        assert done == [0 if failing == "worker" else 5]


def fresh_worker(monkeypatch, cpu):
    """The next two-worker call starts a new worker, created on cpu."""
    monkeypatch.setattr(semigeo.grid, "_jobs", None)
    monkeypatch.setattr(semigeo.grid, "_cpu", lambda: cpu)


def affinities():
    """Each thread's CPU set, as a job in one two-range _row_slabs call reads it."""
    seen = {}
    semigeo.grid._row_slabs(lambda i0, i1: seen.update({on_main(): os.sched_getaffinity(0)}), 2)
    return seen


ALLOWED = set(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else set()


class TestPin:
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(ALLOWED) < 2,
                        reason="needs sched_setaffinity and two allowed CPUs")
    def test_worker_leaves_its_creators_cpu(self, workers, monkeypatch):
        workers(2)
        cpu = max(ALLOWED)
        fresh_worker(monkeypatch, cpu)
        assert affinities() == {True: ALLOWED, False: ALLOWED - {cpu}}
        assert os.sched_getaffinity(0) == ALLOWED  # the caller's own is unchanged

    @pytest.mark.skipif(not ALLOWED, reason="needs sched_getaffinity")
    @pytest.mark.parametrize("failing", ["setaffinity", "reader"])
    def test_worker_runs_unpinned_when_it_cannot_pin(self, workers, monkeypatch, failing):
        spec = GridSpec(dims=(9, 6, 7))
        s = init_state("bump", spec, delta=0.01, k=1)
        p = reduce_to_darcy(coriolis_transport_data(s, c=linear_coriolis(spec, 0.05)))
        q = np.random.default_rng(6).standard_normal(spec.dims)
        hess = s.hess.comp
        workers(1)
        want = (apply_operator(p, q), eigmin_symmetric(hess))
        workers(2)
        fresh_worker(monkeypatch, None if failing == "reader" else min(ALLOWED))
        if failing == "setaffinity":
            def refuse(pid, cpus):
                raise OSError(22, "Invalid argument")

            monkeypatch.setattr(os, "sched_setaffinity", refuse)
        assert affinities() == {True: ALLOWED, False: ALLOWED}
        got = (apply_operator(p, q), eigmin_symmetric(hess))
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_worker_that_cannot_start_leaves_every_range_here(monkeypatch):
    # a pids limit makes Thread.start raise; no later call may wait on a
    # queue that no thread reads
    start = threading.Thread.start

    def refuse(thread):
        if thread.name == "semigeo-rows":
            raise RuntimeError("can't start new thread")
        start(thread)

    spec = GridSpec(dims=(48, 4, 5))
    s = init_state("bump", spec, delta=0.01, k=1)
    p = reduce_to_darcy(transport_data(s))
    q = np.random.default_rng(7).standard_normal(spec.dims)
    monkeypatch.setattr(semigeo.grid, "_WORKERS", 1)
    want = (apply_operator(p, q), eigmin_symmetric(s.hess.comp))
    monkeypatch.setattr(semigeo.grid, "_WORKERS", 2)
    monkeypatch.setattr(semigeo.grid, "_jobs", None)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    seen, got = [], []

    def caller():
        for rows in (None, 8):
            semigeo.grid._row_slabs(
                lambda i0, i1: seen.append((i0, threading.current_thread() is thread)), 48, rows)
        got.extend((apply_operator(p, q), eigmin_symmetric(s.hess.comp)))

    thread = threading.Thread(target=caller, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert seen == [(0, True), (24, True)] + [(i0, True) for i0 in range(0, 48, 8)]
    assert semigeo.grid._jobs is None
    assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))


def test_concurrent_callers_share_the_worker(workers):
    # three callers on two cores hand their halves to the one worker thread,
    # with a thread switch every microsecond; each gets the one-worker bits
    spec = GridSpec(dims=(9, 6, 7))
    s = init_state("bump", spec, delta=0.01, k=1)
    p = reduce_to_darcy(coriolis_transport_data(s, c=linear_coriolis(spec, 0.05)))
    q = np.random.default_rng(6).standard_normal(spec.dims)
    workers(1)
    want = (apply_operator(p, q), eigmin_symmetric(s.hess.comp))
    workers(2)
    wrong = []

    def caller():
        for _ in range(40):
            got = (apply_operator(p, q), eigmin_symmetric(s.hess.comp))
            wrong.extend(not np.array_equal(a, b) for a, b in zip(got, want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(wrong) == 3 * 40 * 2 and not any(wrong)


@GRIDS
def test_kernels_do_not_depend_on_workers(dims, workers):
    # a non-symmetric Coriolis coefficient
    spec = GridSpec(dims=dims, extents=(1.0, 1.5, 0.75))
    s = init_state("bump", spec, delta=0.01, k=1)
    d = coriolis_transport_data(s, c=linear_coriolis(spec, 0.05))
    p = reduce_to_darcy(d)
    assert not p.m.symmetric
    q = np.random.default_rng(5).standard_normal(dims)
    u = solve_darcy(p).u
    results = []
    for n in (1, 2):
        workers(n)
        p = reduce_to_darcy(d)
        results.append((apply_operator(p, q), eigmin_symmetric(s.hess.comp),
                        _third_derivative_magnitude(s.hess), hessian(s.p).comp,
                        invert_3x3(d.a).comp, _matvec(d.a, u.comp), curl(u).comp,
                        p.rhs.values, *p.m_face,
                        verify_estimate(u, d, 4.0), verify_estimate(u, d, np.inf),
                        compute_constants(s), compute_constants(s, p=np.inf)))
    one, two = results
    for a, b in zip(one[:-4], two[:-4]):
        assert np.array_equal(a, b)
    assert one[-4:] == two[-4:]


@GRIDS
@pytest.mark.parametrize("n", [1, 2])
def test_kernels_match_whole_grid_references(dims, n, workers):
    # the ranged kernels against the whole-grid formulas, compared with ==
    workers(n)
    spec = GridSpec(dims=dims, origin=(0.2, -0.4, 0.1), extents=(1.0, 1.5, 0.75))
    s = init_state("bump", spec, delta=0.02, k=1)
    d = coriolis_transport_data(s, c=linear_coriolis(spec, 0.05))
    assert np.array_equal(hessian(s.p).comp, whole_grid_hessian(s.p))
    assert np.array_equal(row_major(invert_3x3(d.a)), row_major_invert_3x3(row_major(d.a), False))
    assert np.array_equal(row_major(VectorField(spec, _matvec(d.a, d.f.comp))),
                          row_major_matvec(row_major(d.a), row_major(d.f)))
    assert np.array_equal(row_major(curl(d.f)), row_major_curl(row_major(d.f), spec))
    p = reduce_to_darcy(d)
    rhs, m_face = whole_grid_darcy_rhs(p.m, p.mf)
    assert np.array_equal(p.rhs.values, rhs)
    assert all(np.array_equal(a, b) for a, b in zip(p.m_face, m_face, strict=True))
    for lp in (4.0, 6.0):
        quotient = whole_grid_hoelder_quotient(s.hess, 1.0 - 3.0 / lp)
        assert compute_constants(s, p=lp).m_star == \
            lp_norm(s.hess, np.inf) + quotient + s.lambda_min / 6.0


# two non-cubic grids, and 5, 6 and 7 rows: on two workers a range boundary
# then falls inside the 4-row one-sided ends of the second difference
STATE_GRIDS = [(41, 12, 10), (5, 7, 9), (6, 5, 7), (7, 6, 5)]


@pytest.mark.parametrize("dims", STATE_GRIDS, ids=["x".join(map(str, d)) for d in STATE_GRIDS])
@pytest.mark.parametrize("n", [1, 2])
def test_state_derivatives_match_whole_grid_references(dims, n, workers):
    # one range body takes the gradient and the Hessian; every preset's state,
    # and the state one step on, against the separate whole-grid passes
    workers(n)
    spec = GridSpec(dims=dims, extents=(1.0, 2.0, 0.5))
    for preset in ("identity", "tilt", "quadratic", "bump"):
        s0 = init_state(preset, spec)
        for s in (s0, step(s0, 0.001)[0]):
            hess = TensorField(spec, whole_grid_hessian(s.p))
            assert np.array_equal(s.grad_p.comp, gradient(s.p).comp)
            assert np.array_equal(row_major(s.grad_p), row_major_gradient_values(s.p.values, spec))
            assert np.array_equal(s.hess.comp, hess.comp)
            assert (s.lambda_min, s.lambda_argmin) == min_hessian_eigenvalue(hess)
            assert np.array_equal(hessian(s.p).comp, s.hess.comp)


def test_state_takes_each_first_difference_once(workers, monkeypatch):
    # the mixed partials difference the gradient's rows, not the potential's
    # again: three first differences per range, one range per worker
    workers(2)
    calls = []
    diff_rows = semigeo.grid._diff_rows

    def counted(a, axis, h, i0, i1):
        calls.append((axis, i0))
        return diff_rows(a, axis, h, i0, i1)

    monkeypatch.setattr(semigeo.grid, "_diff_rows", counted)
    init_state("bump", GridSpec(dims=(48, 12, 10)), delta=0.01, k=1)
    assert sorted(calls) == [(axis, i0) for axis in range(3) for i0 in (0, 24)]


@pytest.mark.parametrize("n", [1, 2])
def test_quotient_sees_jumps_between_slabs(n, workers):
    # the largest jump of the tensor lies between rows 7 and 8, the last row
    # of one 8-row slab and the first of the next
    workers(n)
    spec = GridSpec(dims=(18, 5, 6))
    c = np.random.default_rng(8).standard_normal((3, 3) + spec.dims)
    c = c + c.swapaxes(0, 1)
    c[:, :, 8:] += 10.0
    hess = TensorField(spec, c)
    row_max = _difference_row_maxima(hess.comp)
    assert np.isneginf(row_max[0, -1]) and row_max[0].argmax() == 7
    alpha = 0.25
    assert max(float(np.max(m)) / spec.spacing[a] ** alpha for a, m in enumerate(row_max)) \
        == whole_grid_hoelder_quotient(hess, alpha)


@pytest.mark.parametrize("p", [4.0, np.inf])
def test_ratios_are_the_whole_jacobian_norms(p, workers):
    # the slabbed magnitude gives the norms of the full 9-component jacobian
    workers(2)
    spec = GridSpec(dims=(9, 6, 7))
    s = init_state("bump", spec, delta=0.01, k=1)
    d = coriolis_transport_data(s, c=linear_coriolis(spec, 0.05))
    u = solve_darcy(reduce_to_darcy(d)).u
    r = verify_estimate(u, d, p)
    assert r.u_ratio == (lp_norm(u, p) + lp_norm(jacobian(u), p)) / lp_norm(curl(d.f), p)


def test_jacobian_magnitude_raises_where_jacobian_does(workers):
    # finite derivatives whose squares overflow give an infinite magnitude, as
    # the full tensor's did; a derivative that overflows raises, as jacobian does
    workers(2)
    spec = GridSpec(dims=(9, 5, 5))
    x = spec.cell_centers()
    steep = VectorField(spec, 1e306 * x)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isfinite(jacobian(steep).comp))
        assert np.all(np.isinf(_jacobian_magnitude(steep)))
        # each step of 3.4e308 overflows a difference
        jump = VectorField(spec, np.where(x > 0.8, 1.7e308, -1.7e308))
        with pytest.raises(NonFiniteError):
            jacobian(jump)
        with pytest.raises(NonFiniteError, match="field values must be finite"):
            _jacobian_magnitude(jump)


@pytest.mark.parametrize("inputs", [
    "--preset bump --bump-delta 0.02 --coriolis profile:0.05",  # BiCGStab
    "--preset quadratic --quad 2,1,0.5",  # CG
], ids=["bump-coriolis", "quadratic"])
def test_cli_artifacts_do_not_depend_on_workers(tmp_path, workers, inputs):
    argv = inputs.split() + ["--grid", "9,6,7", "--dt", "0.002", "--steps", "4",
                             "--emit", "csv,fields", "--snap-every", "2"]
    outs = []
    for n in (1, 2):
        workers(n)
        outs.append(tmp_path / f"w{n}")
        assert main(argv + ["--out", str(outs[-1])]) == 0
    one, two = outs
    names = sorted(f.name for f in one.iterdir())
    assert names == ["fields_0002.vtk", "fields_0004.vtk", "run.json", "series.csv"]
    assert sorted(f.name for f in two.iterdir()) == names
    for name in names[:2] + ["series.csv"]:
        assert (one / name).read_bytes() == (two / name).read_bytes()
    assert json.loads((one / "run.json").read_text())["steps_completed"] == 4
    meta = [(out / "run.json").read_text().replace(json.dumps(str(out)), '"OUT"') for out in outs]
    assert meta[0] == meta[1] and '"out": "OUT"' in meta[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("inputs", [
    "--grid 6 --dt 1e100",  # the step-1 record's norms overflow
    "--grid 12,6,6 --dt 1e156",  # and its third-derivative magnitude, on the worker
], ids=["dt-1e100", "worker-overflow"])
def test_worker_keeps_the_runs_error_state(tmp_path, workers, inputs):
    # run_experiment turns numpy's warnings off in its context; the worker
    # runs each range in a copy of that context, so its overflows stay silent
    workers(2)
    out = tmp_path / "out"
    argv = inputs.split() + ["--preset", "bump", "--steps", "2", "--out", str(out)]
    assert main(argv) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["halt_reason"].startswith("non-finite values at step 1: ")
