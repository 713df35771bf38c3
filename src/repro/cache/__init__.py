"""Cross-query sample cache: re-consume materialized draw streams.

See :mod:`repro.cache.store` for the cache tier itself and ``docs/cache.md``
for the key structure, the reweighting math, and the epoch-invalidation
contract.
"""

from repro.cache.store import CachedStream, SampleCache, shape_key

__all__ = ["CachedStream", "SampleCache", "shape_key"]
