"""Where did my query's time go? End-to-end tracing walkthrough.

A small burst of Top-K queries runs through a
:class:`~repro.service.QueryService` with tracing on. Every query
comes back with a span tree — admission, queue wait, Phase-1
build/lease, lane dispatch, each clean-loop iteration with its oracle
confirmations — carrying wall seconds *and* the simulated ledger
seconds the cost model charged inside each span. Tracing never
changes an answer: reports stay byte-identical to an untraced run
(DESIGN.md §12).

Run:  PYTHONPATH=src python examples/traced_query.py

Honors the ambient switches::

    REPRO_TRACE=1              # what QueryService picks up by default
    REPRO_TRACE_LOG=/tmp/trace.jsonl   # rotated JSONL event log

then feed the log to ``scripts/trace_report.py`` (``--chrome`` for a
flamegraph in about://tracing or https://ui.perfetto.dev).
"""

from __future__ import annotations

from repro import EverestConfig, QueryService
from repro.trace import NULL_TRACER, Tracer, chrome_trace

#: (tenant, k, thres) — enough shapes to make the tree interesting.
WORKLOAD = [
    ("city-ops", 10, 0.90),
    ("city-ops", 25, 0.90),
    ("retail", 5, 0.95),
]


def print_tree(trace) -> None:
    """Indented span tree with wall / simulated seconds per span."""
    dump = trace.to_dict()
    children = {}
    for span in dump["spans"]:
        children.setdefault(span["parent_id"], []).append(span)

    def walk(span, depth):
        marks = []
        if span["sim_seconds"]:
            marks.append(f"sim={span['sim_seconds']:.3f}s")
        if span["status"] != "ok":
            marks.append(span["status"])
        if span["attrs"].get("process") == "worker":
            marks.append("worker")
        extra = f"  [{', '.join(marks)}]" if marks else ""
        print(f"    {'  ' * depth}{span['name']:<{24 - 2 * depth}s}"
              f"{1e3 * span['duration']:9.2f} ms{extra}")
        kids = children.get(span["span_id"], [])
        # Collapse long runs of same-name siblings (iterations) so the
        # tree stays readable; the full detail is in the exports.
        by_name = {}
        for child in kids:
            by_name.setdefault(child["name"], []).append(child)
        shown = set()
        for child in kids:
            run = by_name[child["name"]]
            if len(run) <= 4 or child is run[0] or child is run[-1]:
                walk(child, depth + 1)
            elif child["name"] not in shown:
                shown.add(child["name"])
                hidden = len(run) - 2
                total_ms = 1e3 * sum(s["duration"] for s in run[1:-1])
                print(f"    {'  ' * (depth + 1)}... {hidden} more "
                      f"{child['name']} spans ({total_ms:.2f} ms)")

    root = dump["spans"][0]
    print(f"  {trace.trace_id}  {dump['name']}")
    walk(root, 0)


def main() -> None:
    tracer = Tracer.from_env()
    if tracer is NULL_TRACER:  # run plain: still show the trees
        tracer = Tracer()

    with QueryService(workers=2, tracer=tracer) as service:
        session = service.open_session(
            "traffic", "count[car]",
            num_frames=1_000, seed=7, config=EverestConfig.fast())
        futures = [
            service.submit(
                session.query().topk(k).guarantee(thres),
                tenant=tenant)
            for tenant, k, thres in WORKLOAD
        ]
        reports = service.gather(futures, timeout=600)

    print(f"{len(reports)} queries done; "
          f"{tracer.completed} traces retained\n")
    for trace in tracer.traces():
        print_tree(trace)
        print()

    events = chrome_trace(tracer.traces())["traceEvents"]
    print(f"chrome export: {len(events)} trace_event records "
          f"(see README 'Observability' to load a flamegraph)")
    if tracer.log is not None:
        print(f"JSONL event log: {tracer.log.path}")


if __name__ == "__main__":
    main()
