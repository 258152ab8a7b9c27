"""Run one command and check its exit code, wall time and peak RSS.

    python .github/bounded_run.py --exit 0,2 --max-s 30 --max-mb 85 -- ifnlab reproduce ...

The peak RSS is the child's, from getrusage(RUSAGE_CHILDREN).  Exits 1 with
the measured figures when the exit code is not one of ``--exit`` or a bound
is not kept; a bound that is not given is not checked.
"""
import argparse
import resource
import subprocess
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exit", required=True, help="accepted exit codes, comma-separated")
    parser.add_argument("--max-s", type=float, help="wall time bound in seconds")
    parser.add_argument("--max-mb", type=float, help="child peak RSS bound in MB")
    parser.add_argument("command", nargs=argparse.REMAINDER, help="-- then the command")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not command:
        parser.error("no command given")
    accepted = {int(code) for code in args.exit.split(",")}
    start = time.perf_counter()
    code = subprocess.run(command).returncode
    seconds = time.perf_counter() - start
    mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"child exit {code}, wall {seconds:.1f} s, peak RSS {mb:.1f} MB")
    broken = [text for text, bad in (
        (f"exit {code} not in {sorted(accepted)}", code not in accepted),
        (f"wall not under {args.max_s} s", args.max_s is not None and seconds >= args.max_s),
        (f"peak RSS not under {args.max_mb} MB", args.max_mb is not None and mb >= args.max_mb),
    ) if bad]
    if broken:
        print("bounds not kept: " + "; ".join(broken), file=sys.stderr)
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
