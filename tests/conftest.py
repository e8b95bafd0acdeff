import pytest


@pytest.fixture
def record_calls(monkeypatch):
    """``record(module, names)`` wraps each named function of ``module`` for the
    test; returns {name: [result of each call]}."""

    def record(module, names):
        results = {name: [] for name in names}

        def recording(name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                results[name].append(out)
                return out
            return wrapper

        for name in names:
            monkeypatch.setattr(module, name, recording(name))
        return results

    return record
