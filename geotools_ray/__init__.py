"""geotools_ray — a Ray-Data-native spatial-join + tiling engine.

A from-scratch re-expression of the query / data-processing
capabilities of the `geotools` reference (LiDAR gridding, zonal stats,
clipping, mosaicking, interpolation, treetop detection, flood fill,
datum transforms) as streaming Ray Data pipelines over Arrow batches,
designed for Lance/Parquet tables of image + caption pairs at
trillion-row scale.

Layout:
  kernels/   pure numpy/python kernels with the reference's EXACT
             semantics (no Ray imports) — shared by engine and oracles
  sources/   table generators, readers/writers (lance-or-parquet)
  stages/    map_batches stage functions & actor classes
  ops/       full pipelines composed of stages (the operator library)
  state/     checkpoint manifests and lineage records

Nothing in this package calls ray.init(); sessions are owned by the
caller (bench.py, tests/conftest.py, or the evaluation driver).
"""

NODATA = -9999.0

__version__ = "0.1.0"
