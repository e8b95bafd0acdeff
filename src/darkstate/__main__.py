"""The command-line entry: ``python -m darkstate`` and the ``darkstate`` script."""

import gc


def run() -> None:
    """Run ``cli.main`` on the process arguments and exit with its code.

    Most of the objects made while importing the CLI (numpy's and the package's)
    live as long as the process, so all of them, some 33 000, are frozen out of
    the cyclic GC, which would otherwise walk them in the collections made while
    importing and at exit; the import-time cycles that are garbage (about 10 000
    objects) are frozen with them.
    """
    gc.disable()
    from .cli import main
    gc.freeze()
    gc.enable()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
