"""Process entry: `python -m mvjacobi` and the `mvjacobi` console script."""

import gc
import sys
from typing import Optional, Sequence

from .cli import main


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Run the command line, then freeze the heap; returns main's exit code.

    The process ends right after this returns, so collecting the objects
    it is about to drop is wasted work: interpreter shutdown would
    otherwise traverse the whole heap in its final collections.  After
    `gc.freeze()` those passes skip every object that exists now.
    Shutdown still runs atexit handlers (profilers, coverage) and flushes
    and closes the standard streams.  In-process callers use `cli.main`,
    which leaves the collector alone.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
