"""One benchmark pass in a fresh interpreter, as a user's `vpvlab` run starts.

Usage: python3 worker.py '<json spec>'

The spec names the checkout root, the workload, the seed and pass index, and
where to write the result. The worker imports vpvlab from `<root>/src`, builds
the catalog, records the moment set-up finished (CLOCK_MONOTONIC, so the
parent can subtract its spawn time), then runs the pass's items in seeded
order, timing each call from outside and checking its outcome. With a
`deadline` (CLOCK_MONOTONIC seconds) it starts no item after that moment, so
the last pass of a run may be partial. With `setup_only` it stops after
set-up. With `trace` it installs the tracer first and adds per-layer metrics
to the result and the spans to `spans`.
"""

import json
import os
import resource
import sys
import time


def _setup(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import vpvlab
    from vpvlab import binary, catalog, cli, closedform, determinants, lattice, series
    catalog.catalog()
    ready = time.monotonic()
    where = os.path.dirname(os.path.abspath(vpvlab.__file__))
    if where != os.path.join(os.path.abspath(src), "vpvlab"):
        raise SystemExit(f"vpvlab imported from {where}, not from {src}")
    return ready, {"series": series, "lattice": lattice, "closedform": closedform,
                   "determinants": determinants, "binary": binary,
                   "catalog": catalog, "cli": cli}


def main(spec):
    ready, vpv = _setup(spec["root"])
    result = {"ready": ready}
    if spec["setup_only"]:
        return result
    import tracer as tracing
    import workloads

    workload = spec["workload"]
    items = workloads.order(
        workloads.build_items(workload, vpv,
                              os.path.join(spec["root"], "tests", "golden"),
                              spec["scratch"]),
        workload, spec["seed"], spec["pass"])
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer, vpv)

    deadline = spec["deadline"]
    samples, failures, done = [], [], []
    clock = time.perf_counter
    start = clock()
    for item in items:
        if deadline is not None and time.monotonic() >= deadline:
            break
        t = clock()
        try:
            if tracer is not None:
                with tracer.span(tracing.ITEM):
                    ok, detail = item.run()
            else:
                ok, detail = item.run()
        except Exception as err:  # an exception is a failed item
            ok, detail = False, f"{type(err).__name__}: {err}"
        samples.append(clock() - t)
        done.append(item.key)
        if not ok:
            failures.append([item.key, detail])
    wall = clock() - start
    result.update(wall=wall, samples=samples, attempted=len(done),
                  complete=len(done) == len(items), failures=failures,
                  order=done,
                  peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, wall)
        tracer.write(spec["spans"])
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    out = main(spec)
    with open(spec["out"], "w", encoding="utf-8") as handle:
        json.dump(out, handle)
