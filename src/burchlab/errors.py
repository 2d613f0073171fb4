"""Exception hierarchy shared across the package.

Exit-code mapping in the CLI: InputError -> 2, ResourceCapError -> 3,
InternalCheckError and any other exception -> 4; exit 1 (a verified bound
failed) comes from the report's bounds, never from an exception.
InternalCheckError signals a broken invariant of the program itself, i.e.
a bug; it gets its own code so that a bug never reads as a falsified
bound.  `corpus` records any exception as the job's error and goes on to
the next job.
"""


class BurchlabError(Exception):
    pass


class InputError(BurchlabError):
    """Malformed or out-of-contract input (e.g. ideal not inside n^2)."""


class ResourceCapError(BurchlabError):
    """A configured size or degree guard was exceeded."""


# the total rank any complex the package builds may reach: the Tate closure,
# the semifree module and the minimal resolution over R (check_rank)
RANK_GUARD = 200000


def check_rank(total: int, what: str):
    """Raise ResourceCapError if the total rank of what exceeds RANK_GUARD."""
    if total > RANK_GUARD:
        raise ResourceCapError(f"{what} rank {total} exceeds the rank guard {RANK_GUARD}")


class ArityCapError(ResourceCapError):
    """The bar differential needs operations beyond the transferred arity cap."""

    def __init__(self, needed: int, cap: int):
        super().__init__(f"bar differential needs arity {needed} operations, cap is {cap}")
        self.needed = needed
        self.cap = cap


class InternalCheckError(BurchlabError):
    """A mechanically checked invariant failed; indicates a bug."""
