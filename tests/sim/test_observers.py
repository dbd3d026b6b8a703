"""The simulator's observation stream (``sim.observers``)."""

import pytest

from repro.sim.observers import Observers


def test_callbacks_fire_in_subscription_order():
    observers = Observers()
    calls = []
    observers.subscribe("health", lambda latest: calls.append(("a", latest)))
    observers.subscribe("health", lambda latest: calls.append(("b", latest)))
    observers.subscribe("health", lambda latest: calls.append(("c", latest)))
    for fn in observers.health:
        fn(1)
    assert calls == [("a", 1), ("b", 1), ("c", 1)]


def test_remover_is_idempotent_and_removes_only_its_own_subscription():
    observers = Observers()
    calls = []

    def fn(latest):
        calls.append(latest)

    remove_first = observers.subscribe("health", fn)
    observers.subscribe("health", fn)  # the same callable, subscribed twice
    remove_first()
    remove_first()  # second call: no-op, the other subscription survives
    assert observers.health == (fn,)
    for callback in observers.health:
        callback("x")
    assert calls == ["x"]


def test_removing_during_an_emit_is_safe():
    observers = Observers()
    calls = []
    removers = {}

    def first(latest):
        calls.append("first")
        removers["second"]()  # drop a later subscriber mid-emit
        removers["first"]()  # and ourselves

    def second(latest):
        calls.append("second")

    removers["first"] = observers.subscribe("health", first)
    removers["second"] = observers.subscribe("health", second)
    for fn in observers.health:
        fn(None)
    # The running emit finishes over the tuple it started with ...
    assert calls == ["first", "second"]
    # ... and the next one sees the removals.
    assert observers.health == ()


def test_unknown_kind_raises():
    observers = Observers()
    with pytest.raises(KeyError, match="unknown observer kind 'block_comit'"):
        observers.subscribe("block_comit", lambda *args: None)
    with pytest.raises(AttributeError):
        observers.block_comit = ()  # no ad-hoc kinds either
