"""Suite-wide test settings.

Property tests run a fixed set of examples: the hypothesis profile
loaded here derandomizes them, so every run of the suite draws the same
examples. Each test keeps its own ``max_examples`` and ``deadline``.
"""

from hypothesis import settings

settings.register_profile("fixed", derandomize=True)
settings.load_profile("fixed")
