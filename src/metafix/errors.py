"""The common base of the errors that signal a broken internal invariant."""


class InvariantError(Exception):
    """A structural invariant failed or an internal limit was exceeded.

    It indicates a bug or an input too large for the exact representation,
    never malformed input; the command line exits with status 3 on it.
    """
