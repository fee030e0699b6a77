import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from hypothesis import settings

# the same examples on every run, and no example database on disk
settings.register_profile("endscope", derandomize=True, database=None, deadline=None)
settings.load_profile("endscope")
