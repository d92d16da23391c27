"""One benchmark operation in its own process.

    python3 perfbench/op.py WORKLOAD INPUTS_DIR OUT_DIR [--trace SPANS_JSON]

For a pipeline workload this is ``trafficfuse run`` on the generated
config. For ``placement`` it scores every candidate camera set with
``observability.analyze`` and writes the scores to OUT_DIR/scores.json and
the scoring time to OUT_DIR/timing.json. With --trace, spans are recorded
around the calls into each layer (see spans.py) and written to SPANS_JSON
at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import spans


def score_placement(inputs: str, out: str) -> None:
    from trafficfuse import ctm, network, observability

    net = network.load_network(os.path.join(inputs, "network"))
    fd = ctm.default_fd_params(net)
    with open(os.path.join(inputs, "camera_sets.json")) as fh:
        camera_sets = json.load(fh)
    start = time.perf_counter()
    reports = [observability.analyze(net, fd, cams) for cams in camera_sets]
    seconds = time.perf_counter() - start
    payload = {"scores": [r.obs.tolist() for r in reports], "gamma_rank": [r.gamma_rank for r in reports]}
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "scores.json"), "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    with open(os.path.join(out, "timing.json"), "w") as fh:
        json.dump({"seconds": seconds}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("inputs")
    parser.add_argument("out")
    parser.add_argument("--trace", help="write recorded spans to this JSON file")
    args = parser.parse_args(argv)
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    try:
        if args.workload == "placement":
            score_placement(args.inputs, args.out)
        else:
            from trafficfuse import cli

            cli.main(["run", "--config", os.path.join(args.inputs, "config.json"), "--out", args.out])
    finally:
        if rec is not None:
            with open(args.trace, "w") as fh:
                json.dump({"spans": rec.spans, "values": rec.values}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
