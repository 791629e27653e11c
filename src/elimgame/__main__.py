import os
import sys

from .cli import main


def run() -> None:
    """Run the command line, then end the process without interpreter
    teardown: ``main`` has flushed stdout (or reported why it could not),
    every file it wrote is closed and every sweep worker reaped, so the
    process only has its exit status left to give. ``atexit`` hooks do not
    run; an argparse exit (``--help``, bad arguments) still exits normally.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
