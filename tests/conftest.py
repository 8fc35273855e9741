"""Helpers shared by the test modules."""


def count_calls(monkeypatch, owners, name) -> list:
    """Route ``name`` on each of ``owners`` (one module or class, or a tuple
    of them that bind the same function) through a counter.  The returned
    list gains one entry per call; ``len`` reads the tally and ``clear``
    restarts it."""
    owners = owners if isinstance(owners, tuple) else (owners,)
    original = getattr(owners[0], name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for owner in owners:
        monkeypatch.setattr(owner, name, counting)
    return calls
