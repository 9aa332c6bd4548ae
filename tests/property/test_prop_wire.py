"""Property tests: the asyncio transport's wire form.

Two promises the TCP path rests on.  The compact ``Message`` pickle
(:meth:`Message.__reduce__`: a flat tuple of primitives) must be
lossless for every field of every message kind and must re-intern the
actor ids it carries; and the frame parser must recover exactly the
batches that were framed, however the byte stream was cut into reads.
"""

import copy
import dataclasses
import pickle
import struct

from hypothesis import given
from hypothesis import strategies as st

from repro.actor.errors import ActorError, CallTimeout
from repro.actor.ids import ActorId
from repro.actor.messages import Message, MessageKind
from repro.backend.asyncio_backend import _parse_frames

_scalars = st.one_of(st.integers(-2**40, 2**40), st.text(max_size=8))
_keys = st.one_of(_scalars, st.tuples(_scalars, _scalars))
_ids = st.one_of(st.none(), st.builds(
    ActorId, st.sampled_from(["game", "player", "router"]), _keys))
_payloads = st.one_of(
    st.none(), _scalars, st.lists(_scalars, max_size=3),
    st.dictionaries(st.text(max_size=4), _scalars, max_size=3))
_results = st.one_of(
    _payloads,
    st.builds(ActorError, st.text(max_size=8)),
    st.builds(CallTimeout, _ids, st.text(max_size=8), st.floats(0.0, 9.0)))

messages = st.builds(
    Message,
    kind=st.sampled_from(list(MessageKind)),
    target=_ids,
    method=st.text(max_size=8),
    args=st.lists(_payloads, max_size=3).map(tuple),
    size=st.integers(0, 2**20),
    call_id=st.integers(0, 2**40),
    sender=_ids,
    reply_to_server=st.one_of(st.none(), st.integers(0, 63)),
    result=_results,
    created_at=st.floats(0.0, 1e6),
    response_size=st.integers(0, 2**20),
)


def _comparable(message: Message) -> Message:
    """Exceptions compare by identity; swap them for their contents so
    ``==`` on the message means field-for-field equal."""
    result = message.result
    if isinstance(result, ActorError):
        result = (type(result), result.args, sorted(vars(result).items()))
    fields = {f.name: getattr(message, f.name)
              for f in dataclasses.fields(Message)}
    return Message(**{**fields, "result": result})


@given(messages)
def test_message_wire_form_round_trips(message):
    for clone in (pickle.loads(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)),
                  copy.deepcopy(message)):
        assert _comparable(clone) == _comparable(message)
        assert clone.kind is message.kind
        assert clone.target is message.target   # interning survives
        assert clone.sender is message.sender


def _frame(batch) -> bytes:
    payload = pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)
    return struct.pack(">I", len(payload)) + payload


@given(st.lists(st.lists(messages, max_size=3), max_size=4),
       st.lists(st.integers(0, 2000), max_size=8), st.integers(0, 40))
def test_frame_parser_is_split_invariant(batches, cuts, tail):
    unfinished = _frame(["never completed"] * 8)
    partial = unfinished[:min(tail, len(unfinished) - 1)]
    stream = b"".join(map(_frame, batches)) + partial
    bounds = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
    parsed, buffer = [], b""
    for start, stop in zip(bounds, bounds[1:]):
        complete, buffer = _parse_frames(buffer + stream[start:stop])
        parsed += map(pickle.loads, complete)
    assert [[_comparable(m) for m in batch] for batch in parsed] == \
           [[_comparable(m) for m in batch] for batch in batches]
    assert buffer == partial
