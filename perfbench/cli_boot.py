"""Run one `lambda-cpt` command in this process, as the console script does.

    python3 perfbench/cli_boot.py [--trace-out FILE --op N] -- <command> [options]

Untraced, this is the console script: import ``lambda_cpt.cli`` and exit with
``main(argv)``. With ``--trace-out`` the span wrappers are installed after the
import, every span is tagged with op id N, and the spans are written to FILE
when the command returns.
"""

import sys


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    options, argv = args[:split], args[split + 1 :]
    import lambda_cpt.cli

    if not options:
        return lambda_cpt.cli.main(argv)
    from tracer import Tracer

    tracer = Tracer()
    tracer.op = int(options[options.index("--op") + 1])
    tracer.install()
    try:
        return lambda_cpt.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(options[options.index("--trace-out") + 1])


if __name__ == "__main__":
    sys.exit(main())
