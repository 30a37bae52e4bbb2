import sys
import types

import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_wrappers_account_self_time():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)

    def inner():
        clock.now += 2.0

    inner = rec.wrap("inner", inner)

    def outer():
        clock.now += 1.0
        inner()
        clock.now += 3.0
        inner()

    outer = rec.wrap("outer", outer)
    outer()
    clock.now += 5.0  # outside any wrapper: unattributed
    inner()
    assert rec.calls == {"outer": 1, "inner": 3}
    assert rec.self_s["outer"] == pytest.approx(4.0)
    assert rec.self_s["inner"] == pytest.approx(6.0)
    assert rec.wrapped_s == pytest.approx(10.0)
    metrics = tracing.layer_metrics(rec, {}, wall_s=15.0)
    assert metrics["process.unattributed_frac"] == pytest.approx(1 / 3)


def test_a_raising_call_is_still_accounted():
    clock = FakeClock()
    rec = tracing.Recorder(clock=clock)

    def boom():
        clock.now += 1.0
        raise RuntimeError("boom")

    boom = rec.wrap("boom", boom)
    with pytest.raises(RuntimeError):
        boom()
    assert rec.calls["boom"] == 1 and rec.self_s["boom"] == 1.0
    assert rec.wrapped_s == 1.0


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    user = types.ModuleType("fakepkg.user")

    def f():
        return "f"

    class K:
        def m(self):
            return "m"

    mod.f, mod.K = f, K
    user.f = f  # ``from .mod import f`` elsewhere in the package
    for name, module in (("fakepkg", pkg), ("fakepkg.mod", mod),
                         ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, module)
    return mod, user, f, K


def test_missing_symbols_are_reported_not_fatal(fake_package):
    mod, user, f, K = fake_package
    m = K.__dict__["m"]
    rec = tracing.Recorder()
    layers = (
        ("x.f", "fakepkg.mod", "f"),
        ("x.gone", "fakepkg.mod", "gone"),
        ("x.nomodule", "fakepkg.absent", "f"),
        ("x.m", "fakepkg.mod", "K.m"),
        ("x.nomethod", "fakepkg.mod", "K.gone"),
        ("x.noclass", "fakepkg.mod", "Gone.m"),
    )
    installed = tracing.install(rec, layers, package="fakepkg")
    assert installed.missing == ["x.gone", "x.nomodule", "x.nomethod", "x.noclass"]
    # Every module binding the function goes through the wrapper.
    assert mod.f is user.f and mod.f is not f
    assert user.f() == "f" and mod.f() == "f" and K().m() == "m"
    assert rec.calls == {"x.f": 2, "x.m": 1}
    installed.remove()
    assert mod.f is f and user.f is f and K.__dict__["m"] is m
    assert K().m() == "m" and rec.calls["x.m"] == 1


def test_metrics_of_layers_that_never_ran_read_zero():
    metrics = tracing.layer_metrics(tracing.Recorder(), {}, wall_s=1.0)
    for layer, _, _ in tracing.LAYERS:
        assert metrics[f"{layer}.calls"] == 0
        assert metrics[f"{layer}.self_s"] == 0.0
    assert metrics["baselines.batch_fallback_frac"] == 0.0
    assert metrics["process.unattributed_frac"] == 1.0


def test_program_layers_are_wrapped_everywhere_they_are_bound():
    from repro.baselines import DramBaseline
    from repro.functions import get_function
    from repro.platform import Scheduler
    import repro.vm.restore
    import repro.vm.vmm

    original = repro.vm.restore.tiered_restore
    rec = tracing.Recorder()
    installed = tracing.install(rec)
    try:
        assert installed.missing == []
        assert repro.vm.vmm.tiered_restore is repro.vm.restore.tiered_restore
        assert repro.vm.vmm.tiered_restore is not original
        system = DramBaseline(get_function("pyaes"))
        Scheduler(n_cores=4).run_concurrent(system, 0, 4, seed_base=77)
    finally:
        installed.remove()
    assert repro.vm.vmm.tiered_restore is original
    metrics = tracing.layer_metrics(rec, {}, wall_s=rec.wrapped_s)
    assert metrics["baselines.invoke_batch.calls"] == 1
    assert metrics["sim.execute_cohort.invocations"] == 4
    assert metrics["sim.run_synchronized.calls"] == 1
    assert metrics["baselines.batch_fallback_frac"] == 0.0
    assert metrics["process.unattributed_frac"] == pytest.approx(0.0, abs=1e-12)
