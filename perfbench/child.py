"""One benchmark request: run `kappacalc.cli:main` in this fresh interpreter
and report what it cost as the last line of stderr.

    PYTHONPATH=src python3 perfbench/child.py MODE REQUEST_ID [CLI ARGS...]

MODE is `run` (one untraced request), `trace` (one request with the timing
wrappers of tracer.py installed) or `count` (one request with its counting
wrappers installed).
stdout is the CLI's own output, untouched, so that it can be checked byte
for byte.  The report carries the monotonic clock reading taken right after
`kappacalc.cli` was imported; the parent, which read the same clock before
spawning this process, turns it into the set-up time.
"""
import time

import kappacalc.cli

READY = time.monotonic()

import json  # noqa: E402  (imported after the timed import on purpose)
import resource  # noqa: E402
import sys  # noqa: E402

MARKER = "@@perfbench-report "


def requested_suites(args) -> tuple:
    if "--suites" in args:
        text = args[args.index("--suites") + 1]
        return tuple(t.strip() for t in text.split(",") if t.strip())
    return kappacalc.cli.ALL_SUITES


def input_properties(realizations) -> dict:
    """Size of the realized xhat_mu and M_mu_nu (mu > nu) that the suites
    multiply: monomials, nonzero share of their a0-series coefficients and
    the largest numerator or denominator bit length of those coefficients."""
    monomials = coeffs = nonzero = bits = 0
    for r in realizations:
        n = r.ctx.dim
        elems = list(r.xhat) + [r.M[mu][nu] for mu in range(n)
                                for nu in range(mu)]
        for elem in elems:
            monomials += len(elem.terms)
            for series in elem.terms.values():
                for c in series.coeffs:
                    coeffs += 1
                    nonzero += bool(c.re or c.im)
                    for q in (c.re, c.im):
                        bits = max(bits, q.numerator.bit_length(),
                                   q.denominator.bit_length())
    return {"monomials": monomials, "coeffs": coeffs, "nonzero": nonzero,
            "max_bits": bits}


def main() -> int:
    mode, request_id, args = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    report = {"ready": READY}
    code = 0
    tracer = None
    if mode in ("trace", "count"):
        import tracer as tracing
        tracer = tracing.Tracer(request_id, requested_suites(args),
                                timing=mode == "trace")
        tracing.install(tracer)
    try:
        kappacalc.cli.main(args=args, prog_name="kappacalc")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else \
            (0 if exc.code is None else 1)
    sys.stdout.flush()
    info = kappacalc.algebra._mul_mono.cache_info()
    report.update(mono_hits=info.hits, mono_misses=info.misses)
    if tracer is not None:
        report[mode] = tracer.report()
    if mode == "count":
        report["inputs"] = input_properties(tracer.realizations)
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stderr.write("\n" + MARKER + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
