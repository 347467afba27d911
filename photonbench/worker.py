"""Child process of the benchmark: runs photonstats as a user would.

    worker.py SRC probe
        import photonstats, print "imported", exit.
    worker.py SRC cli TRACE COMB ARGV...
        import photonstats, print "imported", run photonstats.cli.main(ARGV)
        once and exit with its code.
    worker.py SRC loop TRACE SPEC
        import photonstats, print "imported"; run SPEC's warm-up commands,
        print "ready"; then run SPEC's pass (a list of cli argvs) again and
        again until SPEC's budget of seconds is spent, and print one JSON
        line with the time of each command of each pass and any nonzero exit
        codes.

SRC is the directory that holds the photonstats package. TRACE is "-" for an
untraced run, or a file that receives the spans recorded by tracer.Tracer,
one list per pass. COMB, or SPEC's "comb" entry, is the detector's
"offset,gain", against which the tracer checks fitted peak labels.
"""

import sys
import time


def _tracer(trace_path, comb):
    if trace_path == "-":
        return None
    import tracer

    t = tracer.Tracer(tuple(float(v) for v in comb.split(",")))
    t.install()
    return t


def _dump(trace_path, passes):
    import json

    with open(trace_path, "w") as fh:
        json.dump(passes, fh)


def main(argv):
    src, mode = argv[0], argv[1]
    sys.path.insert(0, src)
    import photonstats  # noqa: F401  (the import is what the probe measures)

    print("imported", flush=True)
    if mode == "probe":
        return 0

    import photonstats.cli as cli

    trace_path = argv[2]
    if mode == "cli":
        tr = _tracer(trace_path, argv[3])
        rc = cli.main(argv[4:])
        if tr is not None:
            _dump(trace_path, [tr.take()])
        return rc

    import json

    with open(argv[3]) as fh:
        spec = json.load(fh)
    tr = _tracer(trace_path, spec["comb"])
    bad = []
    for cmd in spec["warmup"]:
        rc = cli.main(cmd)
        if rc != 0:
            bad.append({"argv": cmd, "rc": rc})
    if tr is not None:
        tr.take()
    print("ready", flush=True)

    op_s, pass_s, passes = [], [], []
    begin = time.perf_counter()
    # Start a pass only while it is expected to end within the budget.
    while not pass_s or (time.perf_counter() - begin + sum(pass_s) / len(pass_s)
                         <= spec["budget_s"]):
        times = []
        for cmd in spec["pass"]:
            start = time.perf_counter()
            rc = cli.main(cmd)
            times.append(time.perf_counter() - start)
            if rc != 0:
                bad.append({"argv": cmd, "rc": rc})
        op_s.append(times)
        pass_s.append(sum(times))
        if tr is not None:
            passes.append(tr.take())
    if tr is not None:
        _dump(trace_path, passes)
    print(json.dumps({"op_s": op_s, "bad": bad}), flush=True)
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main(sys.argv[1:]))
