"""The benchmark's traced layers still exist: perfbench/spans.py swaps
functions by name in semloc.pipeline and semloc.semantic_map, so a renamed
or bypassed function would silently drop its span from every traced run."""

import importlib.util
import sys
from pathlib import Path

from semloc.config import PipelineConfig
from semloc.pipeline import build_map, localize_query
from semloc.retrieval import GlobalDescriptor, build_index

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans_under_test", _SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses resolve it here
    spec.loader.exec_module(module)
    return module


def test_every_hooked_layer_records_its_span(zero_noise_dataset, monkeypatch):
    spans = _load_spans(monkeypatch)
    ds = zero_noise_dataset
    cfg = PipelineConfig(seed=7, ransac_inlier_threshold_px=1.2, fusion_voxel_size=0.12,
                         top_k_day=6, top_k_night=6, temp_ransac_max_iterations=300)
    with spans.instrument(spans.Tracer()) as tracer:
        dense_map, _ = build_map(ds.db_records, cfg)
        index = build_index([GlobalDescriptor(r.image_id, r.global_descriptor)
                             for r in ds.db_records])
        result = localize_query(ds.queries[0], 0, ds.db_records, dense_map, index, cfg)
    assert result.pose is not None
    hooked = {name for hooks in (spans.PIPELINE_HOOKS, spans.SEMANTIC_MAP_HOOKS)
              for name, _ in hooks.values()}
    assert hooked <= {s.name for s in tracer.spans}
    (final,) = [s for s in tracer.spans if s.name == "pnp.final"]
    pooled = sum(img["correspondences"] for img in result.diagnostics["images"].values())
    assert final.counts["correspondences"] == pooled
