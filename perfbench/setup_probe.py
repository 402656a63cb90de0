"""One set-up measurement in a fresh interpreter: import tannakit.cli and
load every given spec, as each CLI call does before any mathematics.
Prints the seconds taken and then the time of worker.reference(), run
right after, for the conversion to nominal speed.  Nothing that
tannakit imports is loaded before the clock starts.

Usage (from the checkout root): python3 perfbench/setup_probe.py SPEC...
"""

import os
import sys
import time


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    t0 = time.perf_counter()
    from tannakit import cli
    for path in sys.argv[1:]:
        try:
            cli.load_spec(path)
        except cli.SpecError:
            pass                        # the malformed-input jobs
    secs = time.perf_counter() - t0
    from worker import reference
    print(repr(secs), repr(reference()))


if __name__ == "__main__":
    main()
