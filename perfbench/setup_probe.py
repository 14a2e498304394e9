"""Time one set-up in a fresh interpreter and print the seconds it took.

Set-up is what a user pays before the first experiment call: importing
sfde_tem (numpy included) plus model construction and grid resolution for
one workload.  Import happens once per process, so run.py starts this
script several times and reports the median.

Usage: python3 perfbench/setup_probe.py <src dir> <workload>
"""

import sys
import time


def main() -> None:
    src, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import sfde_tem
    from workloads import WORKLOADS

    WORKLOADS[workload](sfde_tem)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
