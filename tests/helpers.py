"""Test helpers: run the CLI in-process, and copy a record with some fields
changed."""
import io
from contextlib import redirect_stderr, redirect_stdout
from types import SimpleNamespace

from kappacalc.cli import main


class _Tee(io.StringIO):
    """A stream that also writes everything to `both`."""

    def __init__(self, both):
        super().__init__()
        self.both = both

    def write(self, text):
        self.both.write(text)
        return super().write(text)


def run_cli(args) -> SimpleNamespace:
    """Run `kappacalc.cli.main(args=args)` in this process and return what it
    did: `exit_code`, `stdout`, stdout and stderr interleaved as `output`,
    and `exception`, the exception it ended in (None if it exited 0).
    `main` always ends in SystemExit, whose code is the exit code; any other
    exception counts as exit code 1, as it would for the console script."""
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    exception = None
    try:
        with redirect_stdout(out), redirect_stderr(err):
            main(args=list(args), prog_name="kappacalc")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else \
            (0 if exc.code is None else 1)
        exception = exc if code else None
    except Exception as exc:
        code, exception = 1, exc
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                           output=both.getvalue(), exception=exception)


def replace(record, **changes):
    """A copy of a `kappacalc.records` record with `changes` applied."""
    fields = {name: getattr(record, name) for name in record.__slots__}
    return type(record)(**{**fields, **changes})
