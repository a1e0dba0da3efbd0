import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# one profile for every property test: reproducible examples, no deadline
settings.register_profile("amerbound", max_examples=30, deadline=None,
                          derandomize=True)
settings.load_profile("amerbound")
