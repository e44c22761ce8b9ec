"""One measured reproduction: a fresh process that runs a list of
experiments the way ``repro all`` does and writes their result
documents.

    python perfbench/child.py PLAN.json OUT.json

``PLAN.json`` holds ``{"experiments": [[id, kwargs], ...],
"corpus_dir": path, "trace": bool}``.  The process imports
``repro.cli`` first, as every ``repro`` invocation does, so its wall
time includes CLI start-up.  The experiments run serially through
:func:`repro.corpus.engine.run_experiments` and every result is
rendered as the CLI prints it.  With ``trace`` the layer entry points
run inside spans (see ``spans.py``), which are written with the results.
"""

from __future__ import annotations

import json
import sys


def main(plan_path: str, out_path: str) -> int:
    with open(plan_path, encoding="utf-8") as stream:
        plan = json.load(stream)
    tracer = None
    if plan["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        with tracer.span("cli.import"):
            import repro.cli  # noqa: F401
        install(tracer)
    else:
        import repro.cli  # noqa: F401

    from repro.core import backend
    from repro.corpus.engine import run_experiments

    names = [name for name, _ in plan["experiments"]]
    batch = run_experiments(
        names, corpus_dir=plan["corpus_dir"], overrides=dict(plan["experiments"])
    )
    documents = []
    for _, result in batch.results:
        result.render()
        documents.append(result.to_dict())
    output = {
        "documents": documents,
        "corpus": batch.corpus_stats,
        "backend": backend.selected_name(),
    }
    if tracer is not None:
        output["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as stream:
        json.dump(output, stream)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
