"""geotools_ray benchmark (see run.py)."""
