import os
import sys
import tempfile

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Every run draws the same examples and keeps no example database, so a
# failure reproduces; each test keeps its own max_examples. Hypothesis's
# other cache (constants parsed from local source files) goes to the
# system's temp directory rather than into the checkout.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "deskml-hypothesis"))
