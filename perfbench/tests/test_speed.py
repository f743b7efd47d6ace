import gc
import time

import speed


def test_lap_scales_wall_time_by_the_speed_around_it(monkeypatch):
    samples = iter([speed.REF_S, 3 * speed.REF_S, 2 * speed.REF_S])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(samples))
    clock = speed.ReferenceClock()          # takes the first sample
    clock.start()
    time.sleep(0.01)
    wall, factor = clock.lap()              # kernel at 1x before, 3x after
    assert wall >= 0.01
    assert factor == 0.5
    _, factor = clock.lap()                 # 3x before, 2x after
    assert factor == 0.4


def test_kernel_leaves_the_collector_as_it_found_it():
    assert gc.isenabled()
    assert speed.kernel_s() > 0.0
    assert gc.isenabled()
    gc.disable()
    try:
        speed.kernel_s()
        assert not gc.isenabled()
    finally:
        gc.enable()
