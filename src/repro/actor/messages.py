"""Runtime messages.

Three kinds flow through the cluster (Fig. 1/Fig. 2 of the paper):

* client requests entering from frontends,
* actor-to-actor calls (the RPCs/LPCs of Fig. 3), and
* responses heading back to the calling actor or client.

A message's ``size`` drives serialization cost on the remote path; its
``created_at`` timestamp feeds the latency recorders.

On the real runtime a message that crosses silos is pickled.  Its wire
form (:meth:`Message.__reduce__`) is a module-level decoder plus one flat
tuple of primitives — ``kind`` as its int, ``target``/``sender`` as
``(actor_type, key)`` pairs re-interned on decode, every other field
verbatim — so ``pickle`` never walks the dataclass, the ``Enum`` or the
ids.  TCP frames, the ``inproc-copy`` transport and ``copy.deepcopy`` all
go through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum, auto
from typing import Any, Optional

from .ids import ActorId

__all__ = ["MessageKind", "Message", "next_call_id"]

#: A globally unique call correlation id per call, entering no Python frame.
next_call_id = itertools.count(1).__next__


class MessageKind(Enum):
    CLIENT_REQUEST = auto()
    CALL = auto()            # actor-to-actor request (expects a response)
    ONEWAY = auto()          # actor-to-actor fire-and-forget
    RESPONSE = auto()        # response to a CALL or CLIENT_REQUEST


@dataclass(slots=True)
class Message:
    """One message in flight.

    Attributes:
        kind: message kind.
        target: destination actor (for responses: the *caller's silo*
            consumes it, target names the original caller actor, if any).
        method: method to invoke (requests only).
        args: positional arguments (passed by simulated deep copy).
        size: payload bytes, for serialization/copy cost.
        call_id: correlation id linking a response to its call.
        sender: calling actor (None for client traffic).
        reply_to_server: silo that holds the pending-call continuation
            (requests) / is the response's destination (responses).
        result: return value carried by a response.
        created_at: simulated time the message was created.
    """

    kind: MessageKind
    target: Optional[ActorId]
    method: str = ""
    args: tuple = ()
    size: int = 256
    call_id: int = 0
    sender: Optional[ActorId] = None
    reply_to_server: Optional[int] = None
    result: Any = None
    created_at: float = 0.0
    response_size: int = 128

    def make_response(self, result: Any, size: int, server_id: int) -> "Message":
        """Build the response message for this request."""
        # Positional, in field order (keywords cost a dict per call):
        # no method or args, the default response_size.
        return Message(
            MessageKind.RESPONSE, self.sender, "", (), size, self.call_id,
            self.target, self.reply_to_server, result, self.created_at)

    def __reduce__(self):
        target, sender = self.target, self.sender
        return (_decode, (
            self.kind._value_,
            None if target is None else (target.actor_type, target.key),
            self.method, self.args, self.size, self.call_id,
            None if sender is None else (sender.actor_type, sender.key),
            self.reply_to_server, self.result, self.created_at,
            self.response_size))


_KINDS = {kind._value_: kind for kind in MessageKind}


def _decode(kind, target, method, args, size, call_id, sender, *rest) -> Message:
    """Rebuild a :class:`Message` from its wire tuple (field order)."""
    return Message(
        _KINDS[kind], None if target is None else ActorId(*target),
        method, args, size, call_id,
        None if sender is None else ActorId(*sender), *rest)
