"""Per-module tracing of tinyalm, done from outside the program.

A Tracer wraps public methods of one Model and one AdamW *instance*. Each
wrapper is an instance attribute that shadows the class method, so no
`tinyalm` module attribute and no other instance changes.

The tracer keeps one "owner": the pipeline module that the current interval
of wall time, and the tape nodes appended in it, belong to. A wrapped call
sets the owner on entry and on exit. Three modules have no method of their
own on an instance, so they own the gap between two wrapped calls:

- `qformer.inproj`: from `encode_all` returning to `qformer.forward` starting;
- `lm.build_sequence`: from `pad_audio` returning to the decoder starting
  (this includes the one-node prompt-embedding lookup before it);
- `lm.ce_loss`: from the decoder returning to the next wrapped call.

Everything else (audio linear, padding, loss mix, argmax in decoding) is
`model.glue`.

After the forward pass of a training step, the tracer wraps each node's
backward closure on that step's tape and the tape's `backward` method. The
wall time from one closure starting to the next one starting goes to the
module that recorded the first node, so the module shares add up to the whole
of `Tape.backward`. Nodes whose closure never runs were reached without a
gradient.

The tape of a step is created inside `train.train_step`. The tracer reads it
from `tinyalm.autodiff._TAPE`, the active-tape slot, and never writes there.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

from tinyalm import autodiff

# forward spans, in pipeline order; each one's metric is "<span>_ms"
FORWARD_SPANS = ("encoders.encode_all", "qformer.inproj", "qformer.forward",
                 "tapm.forward", "lm.build_sequence", "lm.decoder_forward",
                 "lm.ce_loss", "saclm.forward", "model.glue")

# backward / node-count bucket of each forward span. The encoders are frozen
# NumPy and record no nodes; any they did record would count as glue.
BUCKET = {"encoders.encode_all": "model.glue",
          "qformer.inproj": "qformer", "qformer.forward": "qformer",
          "tapm.forward": "tapm", "lm.build_sequence": "lm.build_sequence",
          "lm.decoder_forward": "lm.decoder", "lm.ce_loss": "lm.ce",
          "saclm.forward": "saclm", "model.glue": "model.glue"}
BUCKETS = ("qformer", "tapm", "lm.build_sequence", "lm.decoder", "lm.ce",
           "saclm", "model.glue")


def _n_nodes() -> int:
    tape = autodiff._TAPE
    return 0 if tape is None else len(tape.nodes)


def _timed_closure(backward, index: int, starts: list):
    def run(g):
        starts.append((perf_counter(), index))
        return backward(g)
    return run


class Tracer:
    """Collects per-module time and counts while `recording` is true.

    One op is one `forward_batch` of a training step (plus its backward and
    optimizer step) or one `greedy_decode`. `metrics()` reports means per op.
    """

    def __init__(self, model, opt=None):
        self.recording = False
        self.ops = 0
        self.split_ms = defaultdict(float)   # model.forward / autodiff.backward / optim.step
        self.fwd_ms = defaultdict(float)     # forward span -> ms
        self.bwd_ms = defaultdict(float)     # bucket -> ms
        self.bucket_nodes = defaultdict(int)
        self.nodes = self.nodes_reached = self.tape_bytes = 0
        self.positions = self.decoder_calls = self.useful_positions = 0
        self._mode = None          # "train" inside forward_batch, else "decode"
        self._owner = None
        self._t_last = self._t_op = 0.0
        self._n_last = 0
        self._node_bucket = []     # bucket of each node of the current tape

        self._wrap(model, "forward_batch",
                   lambda args: self._begin_op("train"), self._end_forward_batch)
        self._wrap(model, "greedy_decode",
                   lambda args: self._begin_op("decode"), self._end_decode)
        self._wrap(model.encoders, "encode_all",
                   lambda args: self._switch("encoders.encode_all"),
                   lambda out: self._switch("qformer.inproj"))
        self._wrap(model.qformer, "forward",
                   lambda args: self._switch("qformer.forward"),
                   lambda out: self._switch("model.glue"))
        self._wrap(model.tapm, "forward",
                   lambda args: self._switch("tapm.forward"),
                   lambda out: self._switch("model.glue"))
        self._wrap(model, "pad_audio", None,
                   lambda out: self._switch("lm.build_sequence"))
        self._wrap(model.decoder, "forward", self._enter_decoder,
                   lambda out: self._switch("lm.ce_loss" if self._mode == "train"
                                            else "model.glue"))
        self._wrap(model.decoder, "embed_tokens", self._enter_embed, None)
        self._wrap(model.saclm, "forward",
                   lambda args: self._switch("saclm.forward"),
                   lambda out: self._switch("model.glue"))
        if opt is not None:
            self._wrap(opt, "step", None, None, split="optim.step")

    def _wrap(self, obj, name, on_enter, on_exit, split=None):
        inner = getattr(obj, name)

        def wrapped(*args, **kwargs):
            if not self.recording:
                return inner(*args, **kwargs)
            if on_enter is not None:
                on_enter(args)
            t0 = perf_counter()
            out = inner(*args, **kwargs)
            if split is not None:
                self.split_ms[split] += (perf_counter() - t0) * 1e3
            if on_exit is not None:
                on_exit(out)
            return out

        setattr(obj, name, wrapped)

    def _switch(self, owner):
        """Close the interval of the current owner and hand over to `owner`."""
        now, n = perf_counter(), _n_nodes()
        if self._owner is not None:
            self.fwd_ms[self._owner] += (now - self._t_last) * 1e3
            self._node_bucket.extend([BUCKET[self._owner]] * (n - self._n_last))
        self._owner, self._t_last, self._n_last = owner, now, n

    def _begin_op(self, mode):
        self.ops += 1
        self._mode = mode
        self._node_bucket = []
        self._t_op = perf_counter()
        self._switch("model.glue")

    def _end_op(self):
        self._switch(None)
        self.split_ms["model.forward"] += (perf_counter() - self._t_op) * 1e3

    def _enter_decoder(self, args):
        h = args[0]
        self.positions += h.shape[0] * h.shape[1]
        self.decoder_calls += 1
        self._switch("lm.decoder_forward")

    def _enter_embed(self, args):
        # after the CE loss, token embeddings are SACLM's text side; between
        # decoding steps they start the next step's sequence
        if self._owner == "lm.ce_loss":
            self._switch("saclm.forward")
        elif self._owner == "model.glue":
            self._switch("lm.build_sequence")

    def _end_decode(self, tokens):
        self._end_op()
        self.useful_positions += len(tokens)

    def _end_forward_batch(self, out):
        self._end_op()
        self.useful_positions += int((out.seq.loss_mask > 0).sum())
        tape = autodiff._TAPE
        if tape is not None:
            self._instrument(tape)

    def _instrument(self, tape):
        buckets = self._node_bucket
        nodes = tape.nodes
        self.nodes += len(nodes)
        for b in buckets:
            self.bucket_nodes[b] += 1
        starts = []
        for i, (op, inputs, out, backward) in enumerate(nodes):
            self.tape_bytes += out.data.nbytes
            nodes[i] = (op, inputs, out, _timed_closure(backward, i, starts))
        inner = tape.backward

        def backward(root):
            t0 = perf_counter()
            inner(root)
            t1 = perf_counter()
            self.split_ms["autodiff.backward"] += (t1 - t0) * 1e3
            self.nodes_reached += len(starts)
            edges = [t0] + [t for t, _ in starts[1:]] + [t1]
            for k, (_, i) in enumerate(starts):
                self.bwd_ms[buckets[i]] += (edges[k + 1] - edges[k]) * 1e3

        tape.backward = backward

    def metrics(self) -> dict:
        """Per-op means of every traced quantity (0 where a layer never ran)."""
        ops = max(self.ops, 1)
        out = {"model.forward_ms": self.split_ms["model.forward"] / ops,
               "autodiff.backward_ms": self.split_ms["autodiff.backward"] / ops,
               "optim.step_ms": self.split_ms["optim.step"] / ops}
        for span in FORWARD_SPANS:
            out[f"{span}_ms"] = self.fwd_ms[span] / ops
        for b in BUCKETS:
            out[f"{b}.backward_ms"] = self.bwd_ms[b] / ops
            out[f"{b}.nodes_per_step"] = self.bucket_nodes[b] / ops
        out["autodiff.nodes_per_step"] = self.nodes / ops
        out["autodiff.bwd_nodes_without_grad_frac"] = (
            (self.nodes - self.nodes_reached) / self.nodes if self.nodes else 0.0)
        out["autodiff.tape_bytes_per_step"] = self.tape_bytes / ops
        out["lm.positions_per_decode_forward"] = (
            self.positions / self.decoder_calls if self.decoder_calls else 0.0)
        out["lm.useful_position_frac"] = (
            self.useful_positions / self.positions if self.positions else 0.0)
        return out
