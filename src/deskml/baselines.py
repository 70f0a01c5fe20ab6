"""Baseline model catalog: MLP, mini-ViT, mini-Mixer, mini-ResNet,
mini-U-Net, and DETR-mini, each wired into the model registry.

These are desk-scale variants meant as forkable starting points; all
hyperparameters below are adjustable through the config.
"""

from __future__ import annotations

import numpy as np

from . import layers as L
from . import matchers
from . import rng as R
from . import tensor as T
from .config import Config
from .data import DatasetMetaData
from .models import (ArchitectureHandle, ModelContract, ModelError, _one_hot,
                     classification_loss, classification_metrics,
                     example_mask, masked_mean, register_model,
                     segmentation_loss, segmentation_metrics,
                     softmax_cross_entropy)
from .tensor import Tensor


def _dtype(config: Config) -> str:
    dtype = config.get("model.dtype", "f32")
    if dtype not in ("f32", "f64"):
        raise ModelError(f"config key 'model.dtype' must be 'f32' or 'f64', got {dtype!r}")
    return dtype


def _in_dtype(dtype: str, params: dict, model_state: dict) -> tuple[dict, dict]:
    """An ``init``'s params and model state, cast from the float32 of the
    layer initializers to the model's dtype."""
    return ({k: Tensor(v, dtype=dtype) for k, v in params.items()},
            {k: Tensor(v, dtype=dtype) for k, v in model_state.items()})


def _heads(config: Config, dim: int) -> int:
    """``model.heads``, refused unless a divisor of ``dim``."""
    heads = config.get("model.heads", 4, within="[1, inf)")
    if dim % heads:
        raise ModelError(f"config key 'model.heads' must divide model.dim {dim}, "
                         f"got {heads}")
    return heads


def _classification_contract(config, meta, arch) -> ModelContract:
    smoothing = config.get("model.label_smoothing", 0.0, within="[0, 1)")

    def loss_fn(logits, batch):
        return classification_loss(logits, batch, num_classes=meta.num_classes,
                                   label_smoothing=smoothing)

    return ModelContract(
        meta=meta, build_model=lambda: arch,
        loss_fn=loss_fn, get_metrics_fn=lambda: classification_metrics)


# ---------------------------------------------------------------------------
# MLP


def build_mlp(config: Config, meta: DatasetMetaData) -> ModelContract:
    hidden = config.get("model.hidden", [64], within="[1, inf)")
    dtype = _dtype(config)
    k = meta.num_classes
    d_in = int(np.prod(meta.input_shape[1:]))

    def init(key):
        dims = [d_in] + list(hidden) + [k]
        keys = R.split(key, len(dims) - 1)
        params = {}
        for i in range(len(dims) - 1):
            params.update(L.prefixed(f"dense{i}", L.init_dense(keys[i], dims[i], dims[i + 1])))
        return _in_dtype(dtype, params, {})

    def apply(params, model_state, inputs, train=False, rng=None):
        s = L.scopes(params)
        h = inputs.astype(dtype).reshape((inputs.shape[0], d_in))
        n_layers = len(hidden) + 1
        for i in range(n_layers):
            h = L.dense(h, s[f"dense{i}"])
            if i < n_layers - 1:
                h = T.relu(h)
        return h, model_state

    return _classification_contract(config, meta, ArchitectureHandle(init, apply))


# ---------------------------------------------------------------------------
# ViT


def build_vit(config: Config, meta: DatasetMetaData) -> ModelContract:
    patch = config.get("model.patch_size", 4, within="[1, inf)")
    dim = config.get("model.dim", 64, within="[1, inf)")
    depth = config.get("model.depth", 2, within="[0, inf)")
    heads = _heads(config, dim)
    mlp_dim = config.get("model.mlp_dim", 2 * dim, within="[1, inf)")
    drop = config.get("model.dropout", 0.0, within="[0, 1)")
    dtype = _dtype(config)
    k = meta.num_classes
    _, h, w, c = meta.input_shape
    if h % patch or w % patch:
        raise ModelError(f"input {h}x{w} not divisible by patch {patch}")
    tokens = (h // patch) * (w // patch)

    def init(key):
        keys = R.split(key, depth + 4)
        params = L.prefixed("patch", L.init_patch_embed(keys[0], patch, c, dim))
        params["cls_token"] = L.trunc_normal(keys[1], (1, 1, dim))
        params.update(L.prefixed("pos", L.init_positional_embedding(keys[2], tokens + 1, dim)))
        for i in range(depth):
            params.update(L.prefixed(f"block{i}", L.init_transformer_block(keys[3 + i], dim, mlp_dim)))
        params.update(L.prefixed("ln", L.init_layer_norm(dim)))
        params.update(L.prefixed("head", L.init_dense(keys[-1], dim, k)))
        return _in_dtype(dtype, params, {})

    def apply(params, model_state, inputs, train=False, rng=None):
        s = L.scopes(params)
        x = L.patch_embed(inputs.astype(dtype), s["patch"], patch)
        b = x.shape[0]
        cls = params["cls_token"] + T.zeros((b, 1, dim), dtype=dtype)
        x = T.concat([cls, x], axis=1)
        x = L.add_positional_embedding(x, s["pos"])
        # every block's two masks from one draw of the step key
        masks = (L.dropout_mask(rng, drop, (depth, 2) + x.shape, x.data.dtype)
                 if train and drop > 0.0 and depth else [None] * depth)
        for i in range(depth):
            x = L.transformer_block(x, s[f"block{i}"], heads, masks[i])
        x = L.layer_norm(x, s["ln"])
        logits = L.dense(x[:, 0], s["head"])
        return logits, model_state

    return _classification_contract(config, meta, ArchitectureHandle(init, apply))


# ---------------------------------------------------------------------------
# Mixer


def build_mixer(config: Config, meta: DatasetMetaData) -> ModelContract:
    patch = config.get("model.patch_size", 4, within="[1, inf)")
    dim = config.get("model.dim", 64, within="[1, inf)")
    depth = config.get("model.depth", 2, within="[0, inf)")
    token_mlp = config.get("model.token_mlp_dim", 32, within="[1, inf)")
    channel_mlp = config.get("model.channel_mlp_dim", 64, within="[1, inf)")
    dtype = _dtype(config)
    k = meta.num_classes
    _, h, w, c = meta.input_shape
    if h % patch or w % patch:
        raise ModelError(f"input {h}x{w} not divisible by patch {patch}")
    tokens = (h // patch) * (w // patch)

    def init(key):
        keys = R.split(key, depth + 2)
        params = L.prefixed("patch", L.init_patch_embed(keys[0], patch, c, dim))
        for i in range(depth):
            params.update(L.prefixed(f"block{i}", L.init_mixer_block(
                keys[1 + i], tokens, dim, token_mlp, channel_mlp)))
        params.update(L.prefixed("ln", L.init_layer_norm(dim)))
        params.update(L.prefixed("head", L.init_dense(keys[-1], dim, k)))
        return _in_dtype(dtype, params, {})

    def apply(params, model_state, inputs, train=False, rng=None):
        s = L.scopes(params)
        x = L.patch_embed(inputs.astype(dtype), s["patch"], patch)
        for i in range(depth):
            x = L.mixer_block(x, s[f"block{i}"])
        x = L.layer_norm(x, s["ln"])
        logits = L.dense(T.tmean(x, axis=1), s["head"])
        return logits, model_state

    return _classification_contract(config, meta, ArchitectureHandle(init, apply))


# ---------------------------------------------------------------------------
# ResNet


def build_resnet(config: Config, meta: DatasetMetaData) -> ModelContract:
    width = config.get("model.width", 16, within="[1, inf)")
    momentum = config.get("model.bn_momentum", 0.9, within="[0, 1]")
    dtype = _dtype(config)
    k = meta.num_classes
    c = meta.input_shape[-1]
    # 2 stages x 2 blocks; second stage doubles width at stride 2
    stages = [(width, 1), (width, 1), (2 * width, 2), (2 * width, 1)]

    def init(key):
        keys = R.split(key, len(stages) + 2)
        params = L.prefixed("stem", L.init_conv(keys[0], 3, 3, c, width))
        del params["stem/b"]  # batch norm subtracts the mean
        bp, bs = L.init_batch_norm(width)
        params.update(L.prefixed("stem_bn", bp))
        state = L.prefixed("stem_bn", bs)
        cin = width
        for i, (cout, stride) in enumerate(stages):
            p, s = L.init_resnet_block(keys[1 + i], cin, cout, stride)
            params.update(L.prefixed(f"block{i}", p))
            state.update(L.prefixed(f"block{i}", s))
            cin = cout
        params.update(L.prefixed("head", L.init_dense(keys[-1], cin, k)))
        return _in_dtype(dtype, params, state)

    def apply(params, model_state, inputs, train=False, rng=None):
        s, ss = L.scopes(params), L.scopes(model_state)
        h = L.conv(inputs.astype(dtype), s["stem"])
        h, stem_bn = L.batch_norm(h, s["stem_bn"], ss["stem_bn"], train, momentum)
        h = T.relu(h)
        new_state = L.prefixed("stem_bn", stem_bn)
        for i, (_, stride) in enumerate(stages):
            h, bs = L.resnet_block(h, s[f"block{i}"], ss[f"block{i}"],
                                   train, stride=stride, momentum=momentum)
            new_state.update(L.prefixed(f"block{i}", bs))
        pooled = T.tmean(T.tmean(h, axis=1), axis=1)
        logits = L.dense(pooled, s["head"])
        return logits, new_state

    return _classification_contract(config, meta, ArchitectureHandle(init, apply))


# ---------------------------------------------------------------------------
# U-Net


def build_unet(config: Config, meta: DatasetMetaData) -> ModelContract:
    width = config.get("model.width", 16, within="[1, inf)")
    dtype = _dtype(config)
    k = meta.num_classes
    _, h, w, c = meta.input_shape
    if h % 4 or w % 4:
        raise ModelError(f"input {h}x{w} must be divisible by 4")

    def init(key):
        k1, k2, kb, k3, k4, kh = R.split(key, 6)
        params = {}
        params.update(L.prefixed("down1", L.init_double_conv(k1, c, width)))
        params.update(L.prefixed("down2", L.init_double_conv(k2, width, 2 * width)))
        params.update(L.prefixed("bottleneck", L.init_double_conv(kb, 2 * width, 4 * width)))
        params.update(L.prefixed("up1", L.init_double_conv(k3, 4 * width + 2 * width, 2 * width)))
        params.update(L.prefixed("up2", L.init_double_conv(k4, 2 * width + width, width)))
        params.update(L.prefixed("head", L.init_conv(kh, 1, 1, width, k)))
        return _in_dtype(dtype, params, {})

    def apply(params, model_state, inputs, train=False, rng=None):
        s = L.scopes(params)
        x = inputs.astype(dtype)
        skip1, x = L.unet_down(x, s["down1"])
        skip2, x = L.unet_down(x, s["down2"])
        x = L.double_conv(x, s["bottleneck"])
        x = L.unet_up(x, skip2, s["up1"])
        x = L.unet_up(x, skip1, s["up2"])
        logits = L.conv(x, s["head"])
        return logits, model_state

    return ModelContract(
        meta=meta,
        build_model=lambda: ArchitectureHandle(init, apply),
        loss_fn=segmentation_loss,
        get_metrics_fn=lambda: segmentation_metrics)


# ---------------------------------------------------------------------------
# DETR-mini


# Key under which DETR's criterion leaves its matched pairs and loss on the
# outputs dict, for the metric function called on the same outputs.
_MATCHED = "_matched"


def build_detr_mini(config: Config, meta: DatasetMetaData) -> ModelContract:
    dim = config.get("model.dim", 64, within="[2, inf)")  # conv1 has dim // 2 channels
    heads = _heads(config, dim)
    enc_depth = config.get("model.encoder_depth", 2, within="[0, inf)")
    dec_depth = config.get("model.decoder_depth", 2, within="[0, inf)")
    mlp_dim = config.get("model.mlp_dim", 2 * dim, within="[1, inf)")
    num_slots = config.get("model.num_slots", 8, within="[1, inf)")
    max_objects = config.get("dataset.max_objects", 3, within="[0, inf)")
    # a matching cost is at most lambda_cls * 1 + lambda_box * 4, which
    # these bounds keep finite in float32 (max about 3.4e38)
    lambda_cls = config.get("model.lambda_cls", 1.0, within="[0, 1e37]")
    lambda_box = config.get("model.lambda_box", 5.0, within="[0, 1e37]")
    if lambda_cls == lambda_box == 0:
        raise ModelError("model.lambda_cls and model.lambda_box are both 0, "
                         "so every matching would cost the same")
    algorithm = config.get("model.matcher", "hungarian")
    dtype = _dtype(config)
    if algorithm not in matchers._ALGORITHMS:
        raise ModelError(f"unknown model.matcher {algorithm!r}; "
                         f"have {sorted(matchers._ALGORITHMS)}")
    if num_slots < max_objects:
        raise ModelError(f"num_slots {num_slots} < max_objects {max_objects}")
    k = meta.num_classes
    no_object = k
    _, h, w, c = meta.input_shape
    if h % 4 or w % 4:
        raise ModelError(f"input {h}x{w} must be divisible by 4")
    tokens = (h // 4) * (w // 4)

    def init(key):
        keys = R.split(key, enc_depth + dec_depth + 6)
        i = 0
        params = L.prefixed("conv1", L.init_conv(keys[i], 3, 3, c, dim // 2)); i += 1
        params.update(L.prefixed("conv2", L.init_conv(keys[i], 3, 3, dim // 2, dim))); i += 1
        params.update(L.prefixed("pos", L.init_positional_embedding(keys[i], tokens, dim))); i += 1
        for e in range(enc_depth):
            params.update(L.prefixed(f"enc{e}", L.init_transformer_block(keys[i], dim, mlp_dim))); i += 1
        params["queries"] = L.trunc_normal(keys[i], (num_slots, dim)); i += 1
        for d in range(dec_depth):
            params.update(L.prefixed(f"dec{d}", L.init_decoder_block(keys[i], dim, mlp_dim))); i += 1
        params.update(L.prefixed("dec_ln", L.init_layer_norm(dim)))
        params.update(L.prefixed("cls_head", L.init_dense(keys[i], dim, k + 1))); i += 1
        params.update(L.prefixed("box_head", L.init_dense(keys[i], dim, 4)))
        return _in_dtype(dtype, params, {})

    def apply(params, model_state, inputs, train=False, rng=None):
        s = L.scopes(params)
        b = inputs.shape[0]
        x = T.relu(L.conv(inputs.astype(dtype), s["conv1"], stride=2))
        x = T.relu(L.conv(x, s["conv2"], stride=2))
        x = x.reshape((b, tokens, dim))
        x = L.add_positional_embedding(x, s["pos"])
        for e in range(enc_depth):
            x = L.transformer_block(x, s[f"enc{e}"], heads)
        q = params["queries"] + T.zeros((b, num_slots, dim), dtype=dtype)
        for d in range(dec_depth):
            q = L.decoder_block(q, x, s[f"dec{d}"], heads)
        q = L.layer_norm(q, s["dec_ln"])  # pre-LN: the heads read a normed stream
        class_logits = L.dense(q, s["cls_head"])
        boxes = T.sigmoid(L.dense(q, s["box_head"]))
        return {"class_logits": class_logits, "boxes": boxes}, model_state

    def match(outputs, tcls, tbox, mask):
        """The batch's matched pairs by the named matcher: one int64
        (image, target, slot) index triple, ordered by image, then target.

        Cost of putting target j on slot s is
        lambda_cls * (1 - p_s(class_j)) + lambda_box * L1(box_s, box_j).
        Images masked out (padding) are left unmatched.
        """
        prob = T.softmax(outputs["class_logits"].detach()).data  # [b, s, k+1]
        pboxes = outputs["boxes"].data
        cls_cost = 1.0 - np.take_along_axis(prob, tcls[:, None, :], 2).transpose(0, 2, 1)
        box_cost = np.abs(tbox[:, :, None, :] - pboxes[:, None, :, :]).sum(-1)
        costs = lambda_cls * cls_cost + lambda_box * box_cost  # [b, M, s]
        real = (tcls != no_object) & (mask[:, None] != 0)
        img, tgt = np.nonzero(real)
        slot = np.empty_like(img)
        for i in np.flatnonzero(real.any(-1)):
            slot[img == i] = matchers.match(costs[i, real[i]], algorithm).row_to_col
        return img, tgt, slot

    def set_loss(outputs, tcls, tbox, mask, pairs):
        """Each image's slot CE plus lambda_box * L1, and their mean over
        unmasked images."""
        logits = outputs["class_logits"]
        boxes = outputs["boxes"]
        b, s, _ = logits.shape
        img, tgt, slot = pairs
        # classification targets over all slots; no-object where unmatched
        slot_cls = np.full((b, s), no_object, np.int64)
        slot_cls[img, slot] = tcls[img, tgt]
        sel = np.zeros((b, max_objects, s))  # one-hot target->slot
        sel[img, tgt, slot] = 1.0
        n_obj = np.bincount(img, minlength=b)
        ce = softmax_cross_entropy(logits, _one_hot(Tensor(slot_cls), k + 1))
        ce_per_image = T.tmean(ce, axis=-1)
        # L1 over matched slots, normalized per image by its object count
        matched = Tensor(sel.astype(boxes.data.dtype)) @ boxes  # [b, M, 4]
        diff = matched - Tensor(tbox.astype(boxes.data.dtype)) * Tensor(
            sel.sum(-1, keepdims=True).astype(boxes.data.dtype))
        l1 = T.tsum(T.tsum(T.relu(diff) + T.relu(-diff), axis=-1), axis=-1)
        l1_per_image = l1 * Tensor((1.0 / np.maximum(n_obj, 1.0)).astype(boxes.data.dtype))
        per_image = ce_per_image + l1_per_image * lambda_box
        return per_image, masked_mean(per_image, mask, mask.sum())

    def criterion(outputs, label, boxes, batch_mask=None):
        """The matched pairs, the per-image losses and the set loss of
        ``outputs`` against the targets, computed once: they stay on the
        outputs dict, and a later call with the same label, boxes and mask
        Tensors (the metric function after ``loss_fn``) reuses them."""
        targets = (label, boxes, batch_mask)
        record = outputs.get(_MATCHED)
        if record is None or not all(a is b for a, b in zip(record[0], targets)):
            arrays = (label.data, boxes.data, example_mask(batch_mask, len(label.data)))
            pairs = match(outputs, *arrays)
            record = outputs[_MATCHED] = (targets, pairs, *set_loss(outputs, *arrays, pairs))
        return record[1:]

    def loss_fn(outputs, batch):
        return criterion(outputs, batch["label"], batch["boxes"], batch.get("batch_mask"))[2]

    def metric_fn(outputs, label, boxes, batch_mask=None):
        mask = example_mask(batch_mask, len(label.data))
        count = float(mask.sum())
        if count == 0:  # a batch that is all padding contributes nothing
            return dict.fromkeys(("matched_accuracy", "box_l1", "loss"), (0.0, 0.0))
        (img, tgt, slot), per_image, _ = criterion(outputs, label, boxes, batch_mask)
        pred_cls = outputs["class_logits"].data[img, slot].argmax(-1)
        per = np.abs(outputs["boxes"].data[img, slot] - boxes.data[img, tgt]).mean(-1)
        # each image's L1 sum in the boxes' dtype, one reduction of its
        # length per object count (numpy adds 8 or more terms pairwise),
        # then the images in order in float64
        counts = np.bincount(img, minlength=len(mask))
        first = np.cumsum(counts) - counts
        sums = np.zeros(len(mask))
        for c in range(1, max_objects + 1):
            of_c = counts == c
            sums[of_c] = per[first[of_c, None] + np.arange(c)].sum(-1)
        return {
            "matched_accuracy": (float((pred_cls == label.data[img, tgt]).sum()),
                                 float(len(img))),
            "box_l1": (float(np.cumsum(sums)[-1]), float(len(img))),
            # each image's loss in float64, summed in example order: the
            # same rows give the same sum however eval batches them
            "loss": (float(np.cumsum(per_image.data * mask)[-1]), count),
        }

    return ModelContract(
        meta=meta,
        build_model=lambda: ArchitectureHandle(init, apply),
        loss_fn=loss_fn, get_metrics_fn=lambda: metric_fn)


# ---------------------------------------------------------------------------
# catalog

BASELINES = {
    "fully_connected_classification": (build_mlp, {"dataset": {"name": "blobs_classification"}}, "classification"),
    "vit_classification": (build_vit, {"dataset": {"name": "blobs_classification", "input_shape": [8, 8, 1]}}, "classification"),
    "mixer_classification": (build_mixer, {"dataset": {"name": "blobs_classification", "input_shape": [8, 8, 1]}}, "classification"),
    "resnet_classification": (build_resnet, {"dataset": {"name": "blobs_classification", "input_shape": [8, 8, 1]}}, "classification"),
    "unet_segmentation": (build_unet, {"dataset": {"name": "shapes_segmentation"}}, "segmentation"),
    "detr_detection": (build_detr_mini, {"dataset": {"name": "boxes_detection"}}, "detection"),
}

for _name, (_factory, _defaults, _kind) in BASELINES.items():
    register_model(_name, _factory, _defaults)
