"""Time adnlab's set-up in a fresh interpreter.

Usage: ``python3 setup_probe.py SRC_DIR SCENARIO.json [SCENARIO.json ...]``

Prints the seconds taken to import ``adnlab.cli`` (which imports the whole
package and numpy) plus ``load_scenario``, ``build`` and ``base_params``
for every scenario given.  Interpreter start-up is not included.
"""

import sys
import time


def main(argv):
    src, paths = argv[0], argv[1:]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import adnlab.cli  # noqa: F401  (timed import of the whole package)
    from adnlab.scenario import load_scenario

    for path in paths:
        scenario = load_scenario(path)
        scenario.base_params(scenario.build())
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
