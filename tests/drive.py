"""Test drivers: a SUPI flow up to its challenge by direct role calls, a
session generator held at one of its radio messages, then finished, and a
UE role that hands each sk_U pair it draws to the test."""

import dataclasses

from pqaka import hn as hn_mod, sn as sn_mod, ue as ue_mod
from pqaka.attacks import Weakened


def to_challenge(world, rng):
    """Run the SUPI flow up to the challenge by direct module calls; return
    the id-response, the sk_U pair it drew, the session's name (its R_SN),
    the HN's vector and the challenge."""
    msg, pair = ue_mod.ue_identification_response(world.ue, rng)
    to_hn, sid = sn_mod.sn_forward_identification(world.sn, msg, rng)
    _supi, pk_u, record = hn_mod.hn_identify(world.hn, to_hn, world.sn.id_sn)
    vector = hn_mod.hn_auth_vector(
        world.hn, record, pk_u, to_hn.r_sn, world.sn.id_sn, rng)
    return msg, pair, sid, vector, sn_mod.sn_forward_challenge(world.sn, sid, vector)


def run_until(steps, label):
    """Pass a session's radio messages through until it yields `label`;
    return the bytes of that message, which is held."""
    message = next(steps)
    while message[0] != label:
        message = steps.send(message[1])
    return message[1]


def finish(steps, delivered):
    """Deliver `delivered` for the held message, pass the rest through and
    return the session's outcome."""
    try:
        while True:
            delivered = steps.send(delivered)[1]
    except StopIteration as stop:
        return stop.value


def keeping_pairs(pairs):
    """The honest UE role, appending each sk_U pair it draws to `pairs`, as
    attacks.run_captured's wrapper takes sk_U; pass it as ue_mod=."""
    def identification_response(state, rng):
        msg, pair = ue_mod.ue_identification_response(state, rng)
        pairs.append(pair)
        return msg, pair

    return Weakened(ue_mod, ue_identification_response=identification_response)


def fields_holding(state, pairs):
    """The names of the fields of `state`, a dataclass such as UeState, that
    hold one of `pairs` or its sk_U."""
    held = [p for pair in pairs for p in (pair, pair.sk)]
    return [f.name for f in dataclasses.fields(state) if getattr(state, f.name) in held]
