from repro.kvstore.iostats import IOSnapshot

import layers
from run import metric_units
from tracer import Tracer


def test_every_per_layer_metric_has_a_declared_unit():
    metrics = layers.layer_metrics(Tracer(), IOSnapshot(), {}, 0, 0.0, 1.0)
    units = metric_units()
    assert set(metrics) <= set(units)
