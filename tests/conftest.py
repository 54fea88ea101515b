# Pin kernel threading before numpy loads anywhere: the determinism
# contracts (bit-identical reruns, golden digests) assume single-threaded
# kernels with a fixed reduction order.
import os
import tempfile

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

# Hypothesis caches what it learns under ./.hypothesis unless told otherwise;
# keep that out of the checkout.
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "tinyalm-hypothesis"))
