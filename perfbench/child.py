"""Run one ``pcat`` CLI command in this fresh process and record its peak memory.

    python3 perfbench/child.py PEAK_FILE SRC_DIR ARGV...

Writes the process's peak resident set (``VmHWM``, in KiB) to ``PEAK_FILE``
and exits with the command's exit code.  ``VmHWM`` belongs to the address
space created at exec, so the parent's memory does not leak into it, as it
can into ``ru_maxrss``.
"""

import sys


def main() -> int:
    peak_file, src, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    from pcat.cli import main as cli_main

    rc = cli_main(argv)
    with open("/proc/self/status", encoding="ascii") as fh:
        kib = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(peak_file, "w", encoding="ascii") as fh:
        fh.write(kib + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
