"""Per-layer run of the benchmark (``run.py --trace 1``).

The layers are the modules of the package: qseries, modforms, observations,
lorentz, lattices and cli.  Nothing inside the package is changed; spans
are recorded here, around calls into each module's public functions.

The run has three parts:

1. The layer suite calls public functions directly, each on a fixed input
   that a CLI command also computes, and records one span per call.
   Every cached construction is cleared first, so the span holds the cold
   cost that each CLI process pays.  The suite is the same for every
   workload, so every per-layer metric is measured on every traced run.
2. The replay runs the workload's commands in this process through
   ``qleech.cli.main``, with the public functions and methods of every
   module wrapped in spans.  A wrapper records a span only when it is
   entered from another layer, so calls inside one layer stay unwrapped in
   effect and the self time of a layer is the time spent in its code.
   Each command also runs twice untraced, just before its traced run: a
   warm-up, then the run whose ``elapsedMillis`` is compared.  The
   untraced and traced sums give the tracing overhead, and the library
   layers' self time is reported as a share of each sum.
3. ``cli.main`` in this process and as a subprocess, for the rendering and
   process costs.

Spans are kept in memory as (id, parent id, name, start, end) and written
once, at the end, to ``out/trace-<workload>-<seed>.json`` together with
the replay's summary (elapsed_s untraced and traced, overhead, self time
per layer, share).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import random
import statistics
import sys
import time

from harness import OUT_DIR, WORKLOADS, Runner, Tally

LAYERS = ("qseries", "modforms", "observations", "lorentz", "lattices", "cli")

# metric -> unit.  The comment on each group names the end-to-end metric and
# workload that a change to that layer should move.
UNITS = {
    # run_s, elapsed_s and peak_rss_mb on series
    "qseries.mul_s": "s",
    "qseries.pow24_s": "s",
    "qseries.invert_s": "s",
    # the oracle route; it should not move
    "qseries.euler_product_s": "s",
    # run_s on series
    "modforms.delta_s": "s",
    "modforms.j_invariant_s": "s",
    "modforms.eisenstein_e4_s": "s",
    # no workload runs these; they are measured here only
    "observations.check_congruence_s": "s",
    "observations.cannonball_s": "s",
    # a small share of run_s on kissing and kissing-jobs2
    "lorentz.lattice_basis_s": "s",
    "lorentz.quotient_representatives_s": "s",
    "lorentz.leech_gram_s": "s",
    "lorentz.hermite_normal_form_s": "s",
    "lorentz.bareiss_determinant_s": "s",
    "lorentz.inertia_s": "s",
    "lattices.lll_s": "s",
    "lattices.is_lll_reduced_s": "s",
    # run_s on kissing and kissing-jobs2
    "lattices.short_vectors_s": "s",
    # run_s on kissing-jobs2 only; the speed-up's base is short_vectors_s
    "lattices.short_vectors_jobs2_s": "s",
    "lattices.jobs2_speedup": "x",
    # no workload runs these; they are measured here only
    "lattices.short_vectors_norm2_s": "s",
    "lattices.theta_check_e8_s": "s",
    # run_s on series (payloads up to 360 kB)
    "cli.render_s": "s",
    # setup_s on every workload
    "cli.process_overhead_s": "s",
    # the replay: self time of the five library layers (all but cli)
    "trace.layer_self_s": "s",
}

# A call shorter than this is repeated and its median reported.
MIN_SAMPLE_S = 0.25
MAX_REPEATS = 25
RENDER_COMMAND = ["coeffs", "--series", "e4", "--order", "5000"]
# On these workloads the library layers' self time in the traced replay
# should be at least this share of the same replay's elapsed_s; the report
# flags a smaller share, which means the spans miss part of the program's
# time.  The share of the untraced elapsed_s is reported too, but two runs
# of one command in one process differ by up to ~12% on a shared machine,
# so it is not the one checked.
COVERED = ("series", "kissing")
MIN_SHARE = 0.9


class Tracer:
    """Spans kept in memory: (id, parent id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name.split(".")[0]))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        stack = self._stack
        span = self.span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            with span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, roots: set[int]) -> dict[str, float]:
        """Self time per layer over the trees under the given root spans."""
        children: dict[int, float] = {}
        by_id = {s[0]: s for s in self.spans}
        for sid, parent, _, start, end in self.spans:
            if parent is not None:
                children[parent] = children.get(parent, 0.0) + end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for sid, _, name, start, end in self.spans:
            root = sid
            while by_id[root][1] is not None:
                root = by_id[root][1]
            if root in roots:
                layer = name.split(".")[0]
                totals[layer] = totals.get(layer, 0.0) + end - start - children.get(sid, 0.0)
        return totals


def _modules():
    return {name: importlib.import_module(f"qleech.{name}") for name in LAYERS}


def clear_caches(caches) -> None:
    for cached in caches:
        cached.cache_clear()


def _cached_functions(modules) -> list:
    return [
        obj
        for module in modules.values()
        for obj in vars(module).values()
        if callable(getattr(obj, "cache_clear", None))
    ]


_ARITHMETIC = {"__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"}


def instrument(tracer: Tracer, modules) -> list:
    """Wrap the public functions of the package, wherever a module binds
    them, and the public and arithmetic methods of its classes in spans.

    Returns the (owner, name, original) triples that undo it."""
    wrappers: dict[int, object] = {}
    undo = []

    def patch(owner, name, original, new):
        undo.append((owner, name, original))
        setattr(owner, name, new)

    for module in modules.values():
        for name, obj in list(vars(module).items()):
            home = getattr(obj, "__module__", None) or ""
            if name.startswith("_") or not home.startswith("qleech."):
                continue
            layer = home.split(".")[1]
            if not inspect.isclass(obj):
                if callable(obj):
                    if id(obj) not in wrappers:
                        wrappers[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
                    patch(module, name, obj, wrappers[id(obj)])
                continue
            if home != module.__name__:
                continue
            for attr, member in list(vars(obj).items()):
                span = f"{layer}.{name}.{attr}"
                if isinstance(member, classmethod) and not attr.startswith("_"):
                    patch(obj, attr, member, classmethod(tracer.wrap(span, member.__func__)))
                elif inspect.isfunction(member) and (not attr.startswith("_") or attr in _ARITHMETIC):
                    patch(obj, attr, member, tracer.wrap(span, member))
    return undo


def uninstrument(undo) -> None:
    for owner, name, original in reversed(undo):
        setattr(owner, name, original)


def run_main(cli, argv):
    """In-process cli.main: (exit code, stdout bytes, wall s)."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    wall = time.perf_counter() - start
    return code, buffer.getvalue().encode(), wall


def timed(tracer: Tracer, name: str, fn, prepare=None):
    """(median seconds, last result) of fn(); short calls repeat."""
    samples = []
    result = None
    while True:
        if prepare:
            prepare()
        with tracer.span(name):
            start = time.perf_counter()
            result = fn()
            samples.append(time.perf_counter() - start)
        if sum(samples) >= MIN_SAMPLE_S or len(samples) >= MAX_REPEATS:
            return statistics.median(samples), result


def layer_suite(tracer: Tracer, m, tally: Tally) -> dict:
    """Direct calls of each layer's public functions (uninstrumented)."""
    qs, mf, ob, lz, lt = m["qseries"], m["modforms"], m["observations"], m["lorentz"], m["lattices"]
    caches = _cached_functions(m)
    cold = functools.partial(clear_caches, caches)
    out = {}
    record = tally.expect
    e4 = mf.eisenstein_e4(2000)
    out["qseries.mul_s"], e8 = timed(tracer, "qseries.mul", lambda: e4 * e4)
    # E4^2 = E8 = 1 + 480 sum sigma_7(n) q^n
    record("E4^2 = E8", all(e8.coeff(n) == 480 * mf.sigma(7, n) for n in range(1, 30)))
    eta = qs.euler_product_pentagonal(3000)
    out["qseries.pow24_s"], eta24 = timed(tracer, "qseries.pow24", lambda: eta**24)
    record("eta^24 coefficients", [eta24.coeff(k) for k in range(4)] == [1, -24, 252, -1472])
    disc = mf.delta(1500)
    out["qseries.invert_s"], inv = timed(tracer, "qseries.invert", disc.invert)
    # 1/Delta = q^-1 prod (1 - q^n)^-24
    record("1/Delta coefficients", [inv.coeff(k) for k in range(-1, 4)] == [1, 24, 324, 3200, 25650])
    out["qseries.euler_product_s"], direct = timed(
        tracer, "qseries.euler_product", lambda: qs.euler_product(3000)
    )
    record("Euler product routes agree", direct == qs.euler_product_pentagonal(3000))

    out["modforms.delta_s"], d = timed(tracer, "modforms.delta", lambda: mf.delta(3000), cold)
    record("delta(3000)", d.coeffs[:4] == (1, -24, 252, -1472) and d.order == 3000)
    out["modforms.j_invariant_s"], j = timed(
        tracer, "modforms.j_invariant", lambda: mf.j_invariant(1500), cold
    )
    record("j(1500)", [j.coeff(k) for k in (-1, 0, 1)] == [1, 744, 196884])
    out["modforms.eisenstein_e4_s"], e4_big = timed(
        tracer, "modforms.eisenstein_e4", lambda: mf.eisenstein_e4(5000)
    )
    record("E4(5000)", e4_big.order == 5000 and e4_big.coeff(4) == 17520)

    out["observations.check_congruence_s"], reports = timed(
        tracer,
        "observations.check_congruence",
        lambda: [ob.check_congruence(s, 1, 24, 70) for s in ("j", "delta")],
        cold,
    )
    record("both residues 42", [r.residue for r in reports] == [42, 42])
    out["observations.cannonball_s"], balls = timed(
        tracer, "observations.cannonball", lambda: ob.cannonball(200000)
    )
    record("cannonball", [(s.n, s.m) for s in balls] == [(1, 1), (24, 70)])

    out["lorentz.lattice_basis_s"], (_, basis_gram) = timed(
        tracer, "lorentz.lattice_basis", lz.lattice_basis, cold
    )
    record("lattice basis signature", basis_gram.inertia() == (25, 1, 0))
    out["lorentz.quotient_representatives_s"], reps = timed(
        tracer, "lorentz.quotient_representatives", lz.quotient_representatives, cold
    )
    record("24 representatives", len(reps) == 24)
    out["lorentz.leech_gram_s"], gram = timed(tracer, "lorentz.leech_gram", lz.leech_gram, cold)
    # the three eliminations of the construction, on the Leech Gram matrix
    out["lorentz.hermite_normal_form_s"], (h, u) = timed(
        tracer, "lorentz.hermite_normal_form", lambda: lz.hermite_normal_form(gram.entries)
    )
    record("HNF of a unimodular matrix is the identity",
           all(h[i][k] == (i == k) for i in range(24) for k in range(24)))
    out["lorentz.bareiss_determinant_s"], det = timed(
        tracer, "lorentz.bareiss_determinant", lambda: lz.bareiss_determinant(gram.entries)
    )
    record("Leech determinant 1", det == 1)
    out["lorentz.inertia_s"], signature = timed(
        tracer, "lorentz.inertia", lambda: lz.inertia(gram.entries)
    )
    record("Leech Gram positive definite", signature == (24, 0, 0))

    out["lattices.lll_s"], reduced = timed(tracer, "lattices.lll", lambda: lt.lll(gram))
    out["lattices.is_lll_reduced_s"], is_reduced = timed(
        tracer, "lattices.is_lll_reduced", lambda: lt.is_lll_reduced(reduced.gram)
    )
    record("LLL output is reduced", is_reduced)
    out["lattices.short_vectors_s"], serial = timed(
        tracer, "lattices.short_vectors", lambda: lt.short_vectors(gram, 4)
    )
    record("196560 vectors of norm 4",
           serial.counts == {1: 0, 2: 0, 3: 0, 4: 196560})
    out["lattices.short_vectors_jobs2_s"], split = timed(
        tracer, "lattices.short_vectors_jobs2", lambda: lt.short_vectors(gram, 4, jobs=2)
    )
    record("jobs 2 counts equal serial counts", split.counts == serial.counts)
    out["lattices.jobs2_speedup"] = out["lattices.short_vectors_s"] / out["lattices.short_vectors_jobs2_s"]
    out["lattices.short_vectors_norm2_s"], minimum = timed(
        tracer, "lattices.short_vectors_norm2", lambda: lt.short_vectors(gram, 2)
    )
    record("no roots", minimum.counts == {1: 0, 2: 0})
    out["lattices.theta_check_e8_s"], e8_check = timed(
        tracer, "lattices.theta_check_e8", lambda: lt.theta_check_e8(8)
    )
    record("E8 theta check", e8_check.ok)
    return out


def cli_costs(tracer: Tracer, cli, runner: Runner, tally: Tally) -> dict:
    """Rendering time inside the process and the cost of the process."""
    inside, spawned = [], []
    elapsed = []
    for _ in range(3):
        with tracer.span("cli.main"):
            code, stdout, wall = run_main(cli, RENDER_COMMAND)
        inside.append(wall)
        elapsed.append((tally.check(RENDER_COMMAND, code, stdout) or 0) / 1000)
        process = runner.cli(RENDER_COMMAND)
        tally.check(RENDER_COMMAND, process.code, process.stdout)
        spawned.append(process.wall_s)
    return {
        "cli.render_s": statistics.median(w - e for w, e in zip(inside, elapsed)),
        "cli.process_overhead_s": statistics.median(spawned) - statistics.median(inside),
    }


def traced_run(runner: Runner, workload: str, seed: int, tally: Tally) -> dict:
    sys.path.insert(0, str(runner.root / "src"))
    modules = _modules()
    caches = _cached_functions(modules)
    tracer = Tracer()
    metrics = layer_suite(tracer, modules, tally)

    # each command runs untraced, then traced, in this process
    commands = list(WORKLOADS[workload])
    random.Random(seed).shuffle(commands)
    cli = modules["cli"]
    roots = set()
    elapsed_ms = {"untraced": 0, "traced": 0}
    for argv in commands:
        # the first run of a command in a process also grows the heap, so a
        # warm-up run comes before the two that are compared
        for mode in ("warm-up", "untraced", "traced"):
            clear_caches(caches)
            if mode != "traced":
                code, stdout, _ = run_main(cli, argv)
            else:
                undo = instrument(tracer, modules)
                try:
                    with tracer.span("cli.main"):
                        code, stdout, _ = run_main(cli, argv)
                finally:
                    uninstrument(undo)
                roots.add(tracer.spans[-1][0])
            elapsed = tally.check(argv, code, stdout) or 0
            if mode in elapsed_ms:
                elapsed_ms[mode] += elapsed
    self_times = tracer.self_times(roots)
    untraced, traced = elapsed_ms["untraced"] / 1000, elapsed_ms["traced"] / 1000
    layer_self = sum(t for layer, t in self_times.items() if layer != "cli")
    metrics["trace.layer_self_s"] = layer_self
    coverage = layer_self / traced
    replay = {
        "elapsed_s_untraced": untraced,
        "elapsed_s_traced": traced,
        "overhead_s": traced - untraced,
        "self_s": self_times,
        "layer_share": layer_self / untraced,
        "coverage": coverage,
        "coverage_ok": workload not in COVERED or coverage >= MIN_SHARE,
    }

    # subprocesses start only after the in-process work: --jobs forks
    metrics.update(cli_costs(tracer, cli, runner, tally))

    trace_file = OUT_DIR / f"trace-{workload}-{seed}.json"
    trace_file.write_text(json.dumps({
        "replay": replay,
        "fields": ["id", "parent", "name", "start", "end"],
        "spans": sorted(tracer.spans),
    }))
    print(f"workload {workload}, seed {seed}: traced replay of {len(commands)} commands,"
          f" {len(tracer.spans)} spans in {trace_file.relative_to(runner.root)}")
    print(f"  elapsed_s untraced {untraced:.4f} s, traced {traced:.4f} s,"
          f" tracing overhead {traced - untraced:.4f} s")
    print(f"  library layers' self time {layer_self:.4f} s = {coverage:.1%} of traced"
          f" and {replay['layer_share']:.1%} of untraced elapsed_s")
    if not replay["coverage_ok"]:
        print(f"bench: library layers' self time is {coverage:.1%} of the traced elapsed_s"
              f" on {workload}, below {MIN_SHARE:.0%}", file=sys.stderr)
    for layer in LAYERS:
        print(f"  self {layer:<13} {self_times[layer]:10.4f} s")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:12.4f} {UNITS[name]}")
    return metrics
