"""Self-describing binary checkpoints for TrainState.

Layout: magic, version, JSON manifest (step, rng, the run's fingerprint,
array headers), then raw little-endian array payloads in manifest order.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from .tensor import Tensor

_MAGIC = b"DKMC"
_VERSION = 1
# the TrainState fields saved as arrays, in file order
ARRAY_GROUPS = ("params", "model_state", "opt_state")


class CheckpointError(Exception):
    pass


def save_checkpoint(state, path: str):
    arrays = []
    payloads = []
    for group in ARRAY_GROUPS:
        tree = getattr(state, group)
        for name in sorted(tree):
            # little-endian, copied only if it is not; tobytes writes C order
            data = tree[name].data
            arr = np.asarray(data, data.dtype.newbyteorder("<"))
            arrays.append({
                "group": group,
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
            })
            payloads.append(arr.tobytes())
    header = json.dumps({
        "step": state.step,
        "rng": [state.rng.hi, state.rng.lo],
        "fingerprint": state.fingerprint,
        "arrays": arrays,
    }).encode()
    # Write beside the target and rename over it, so a crash leaves the old
    # file or the whole new one; the temp name must not match "ckpt_*".
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.tmp")
    with open(tmp, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(header)))
        f.write(header)
        for p in payloads:
            f.write(p)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)
    if os.name == "posix":  # make the rename itself survive a crash
        fd = os.open(directory or ".", os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_checkpoint(path: str):
    from .rng import RngKey
    from .train import TrainState

    try:
        with open(path, "rb") as f:
            raw = f.read()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint not found: {path}") from None
    except OSError as e:  # a directory, an unreadable file
        raise CheckpointError(f"{path}: cannot be read ({e.strerror})") from None
    try:
        if raw[:4] != _MAGIC:
            raise CheckpointError(f"{path}: bad magic, not a checkpoint")
        version, hlen = struct.unpack("<II", raw[4:12])
        if version != _VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        header = json.loads(raw[12:12 + hlen])
        groups = {group: {} for group in ARRAY_GROUPS}
        offset = 12 + hlen
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            count = int(np.prod(spec["shape"])) if spec["shape"] else 1
            nbytes = dtype.itemsize * count
            buf = raw[offset:offset + nbytes]
            if len(buf) != nbytes:
                raise CheckpointError(f"{path}: truncated payload for {spec['name']}")
            arr = np.frombuffer(buf, dtype=dtype).reshape(spec["shape"]).copy()
            groups[spec["group"]][spec["name"]] = Tensor(arr)
            offset += nbytes
        return TrainState(
            step=int(header["step"]),
            **groups,
            rng=RngKey(header["rng"][0], header["rng"][1]),
            fingerprint=header.get("fingerprint"),
        )
    except CheckpointError:
        raise
    except Exception as e:
        raise CheckpointError(f"{path}: corrupt checkpoint ({e})") from None
