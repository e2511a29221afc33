"""Shared fixtures: the University-of-Vienna sample record, record builders,
replay-gateway helpers, a stub chat-completions endpoint and an endpoint that
answers with raw, possibly broken, HTTP bytes."""

from __future__ import annotations

import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from synthex.core import AnnotationRecord, Entity, Mention, PartialAnnotation, Span, Triple, record_from_dict
from synthex.gateway import ChatGateway, GenerationParams
from synthex.markup import parse_annotated, render_annotated

UNI_VIENNA_TEXT = (
    "The University of Vienna (German: Universität Wien) is a public research university "
    "located in Vienna, Austria. Founded by Duke Rudolph IV in 1365, it is the oldest "
    "university in the German-speaking world and among the largest institutions of higher "
    "learning in Europe. The university is associated with 17 Nobel Prize winners and has "
    "been the home to many scholars of historical and academic importance."
)

UNI_VIENNA_ANNOTATED = (
    '<ent id="0" type="Educational institution">The University of Vienna</ent> (German: '
    '<ent id="0" type="Educational institution">Universität Wien</ent>) is a public research university '
    'located in <ent id="1" type="Location">Vienna</ent>, <ent id="2" type="Country">Austria</ent>. '
    'Founded by <ent id="3" type="Person">Duke Rudolph IV</ent> in 1365, it is the oldest '
    'university in the German-speaking world and among the largest institutions of higher '
    'learning in Europe. The university is associated with 17 '
    '<ent id="4" type="Award">Nobel Prize</ent> winners and has '
    'been the home to many <ent id="5" type="Person">scholars</ent> of historical and academic importance.'
)

UNI_VIENNA_DICT = {
    "text": UNI_VIENNA_TEXT,
    "annotated_text": UNI_VIENNA_ANNOTATED,
    "entities": [
        {"id": 0, "name": "The University of Vienna", "type": "Educational institution"},
        {"id": 1, "name": "Vienna", "type": "Location"},
        {"id": 2, "name": "Austria", "type": "Country"},
        {"id": 3, "name": "Duke Rudolph IV", "type": "Person"},
        {"id": 4, "name": "Nobel Prize", "type": "Award"},
        {"id": 5, "name": "scholars", "type": "Person"},
    ],
    "relations": [
        {
            "description": "The University of Vienna is located in Vienna.",
            "triple_string": "(The University of Vienna, located_in, Vienna)",
            "subject": 0,
            "predicate": "located_in",
            "object": 1,
        },
        {
            "description": "The University of Vienna is located in Austria.",
            "triple_string": "(The University of Vienna, located_in, Austria)",
            "subject": 0,
            "predicate": "located_in",
            "object": 2,
        },
        {
            "description": "The University of Vienna was founded by Duke Rudolph IV.",
            "triple_string": "(The University of Vienna, founded_by, Duke Rudolph IV)",
            "subject": 0,
            "predicate": "founded_by",
            "object": 3,
        },
        {
            "description": "The University of Vienna has been the home to scholars.",
            "triple_string": "(The University of Vienna, home_of, scholars)",
            "subject": 0,
            "predicate": "home_of",
            "object": 5,
        },
    ],
}


@pytest.fixture
def uni_vienna_dict() -> dict:
    return json.loads(json.dumps(UNI_VIENNA_DICT))


@pytest.fixture
def uni_vienna_record() -> AnnotationRecord:
    return record_from_dict(json.loads(json.dumps(UNI_VIENNA_DICT)), default_doc_id="uni-vienna")


def raw_from_record(record: AnnotationRecord) -> PartialAnnotation:
    """The annotation a model response carrying ``record`` reads as."""
    return PartialAnnotation(record.text, record.annotated_text, record.entities, record.triples)


_FILLERS = (
    "meanwhile the report confirms that".split()
    + "several early studies also describe how".split()
    + "during that period many accounts mention".split()
)

_NAME_HEADS = ["Arden", "Balor", "Corin", "Derwent", "Elsing", "Fenwick", "Garron", "Halvern"]
_NAME_TAILS = ["Institute", "Valley", "Harbor", "Society", "Bridge", "Museum", "Observatory"]
_TYPES = ["Organization", "Place", "Person", "Event", "Artifact"]
_PREDICATES = ["located_in", "member_of", "adjacent_to", "founded", "supports"]


def make_passing_record(
    rng: random.Random,
    doc_id: str,
    n_entities: int | None = None,
    n_triples: int | None = None,
) -> AnnotationRecord:
    """A synthetic record that passes the full verification battery."""
    if n_entities is None:
        n_entities = rng.randint(2, 4)
    names = []
    while len(names) < n_entities:
        name = f"{rng.choice(_NAME_HEADS)} {rng.choice(_NAME_TAILS)}"
        if name not in names:
            names.append(name)
    types = [rng.choice(_TYPES) for _ in names]
    # Keep the fixture away from the degenerate filters by construction.
    if len(set(types)) == 1:
        types[0] = next(t for t in _TYPES if t != types[0])
    entities = tuple(Entity(id=i, name=names[i], type_label=types[i]) for i in range(n_entities))

    # One or two mentions per entity, laid out left to right with filler text.
    mention_plan: list[int] = []
    for i in range(n_entities):
        mention_plan.extend([i] * rng.randint(1, 2))
    rng.shuffle(mention_plan)
    pieces: list[str] = []
    mentions: list[Mention] = []
    cursor = 0
    for entity_index in mention_plan:
        filler = " ".join(rng.choice(_FILLERS) for _ in range(rng.randint(2, 4))) + " "
        pieces.append(filler)
        cursor += len(filler)
        surface = names[entity_index]
        pieces.append(surface)
        mentions.append(
            Mention(
                entity_id=entity_index,
                span=Span(cursor, cursor + len(surface)),
                surface=surface,
                type_label=types[entity_index],
            )
        )
        cursor += len(surface)
        pieces.append(" ")
        cursor += 1
    pieces.append("and so the story ends.")
    text = "".join(pieces)
    annotated = render_annotated(text, mentions)
    plain, parsed = parse_annotated(annotated)
    assert plain == text

    if n_triples is None:
        n_triples = rng.randint(1, 3)
    triples = []
    for _ in range(n_triples):
        subject, obj = rng.sample(range(n_entities), 2) if n_entities >= 2 else (0, 0)
        predicate = rng.choice(_PREDICATES)
        triples.append(
            Triple(
                description=f"{names[subject]} {predicate.replace('_', ' ')} {names[obj]}.",
                triple_string=f"({names[subject]}, {predicate}, {names[obj]})",
                subject=subject,
                predicate=predicate,
                object=obj,
            )
        )
    triples = tuple(triples)
    entity_types = tuple(dict.fromkeys(e.type_label for e in entities))
    relation_types = tuple(dict.fromkeys(t.predicate for t in triples))
    return AnnotationRecord(
        doc_id=doc_id,
        text=text,
        annotated_text=annotated,
        entities=entities,
        mentions=tuple(parsed),
        triples=triples,
        entity_types=entity_types,
        relation_types=relation_types,
    )


def trivial_record(doc_id: str, text: str) -> AnnotationRecord:
    """Minimal one-entity record around arbitrary text (for retrieval tests)."""
    word = text.split()[0]
    annotated = text.replace(word, f'<ent id="0" type="Topic">{word}</ent>', 1)
    _, mentions = parse_annotated(annotated)
    return AnnotationRecord(
        doc_id=doc_id,
        text=text,
        annotated_text=annotated,
        entities=(Entity(0, word, "Topic"),),
        mentions=tuple(mentions),
        triples=(),
        entity_types=("Topic",),
        relation_types=(),
    )


def replay_gateway(tmp_path, exchanges=(), subdir="cache") -> ChatGateway:
    """A replay-mode gateway seeded with (prompt, params, response) triples."""
    gateway = ChatGateway(cache_dir=tmp_path / subdir, mode="replay")
    for prompt, params, response in exchanges:
        gateway.store(prompt, params, response)
    return gateway


def params_for(model: str, temperature: float) -> GenerationParams:
    return GenerationParams(temperature=temperature, model_name=model)


def good_annotation_response(text: str) -> str:
    """A model reply that annotates the first word of ``text`` and passes
    every verification check."""
    word = text.split()[0]
    annotated = text.replace(word, f'<ent id="0" type="Topic">{word}</ent>', 1)
    payload = {
        "text_with_spans": annotated,
        "entities": [{"id": 0, "name": word, "type": "Topic"}],
        "triples": [],
        "relation_types": [],
        "entity_types": ["Topic"],
    }
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


def completed_inference_json(text, annotated, entities, relations, schema) -> str:
    """A call-2 style reply: the completed annotation JSON in a fenced block."""
    payload = {
        "text": text,
        "entity_types": list(schema.entity_types),
        "text_with_spans": annotated,
        "entities": entities,
        "relation_types": list(schema.relation_types),
        "relations": relations,
    }
    return "```json\n" + json.dumps(payload, ensure_ascii=False) + "\n```"


class ChatStubHandler(BaseHTTPRequestHandler):
    """Answers every chat request with ``content`` (or the request's
    ``(prompt, temperature)`` entry in ``replies``), or with an error body
    under ``status`` (or the prompt's entry in ``statuses``), after sleeping
    ``delay`` seconds. Records each request and the peak number in flight."""

    content = "canned reply"
    replies: dict = {}
    status = 200
    statuses: dict = {}
    delay = 0.0
    requests: list = []
    in_flight = 0
    peak_in_flight = 0
    lock = threading.Lock()

    def do_POST(self):
        cls = type(self)
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        with cls.lock:
            cls.requests.append((self.path, body, dict(self.headers)))
            cls.in_flight += 1
            cls.peak_in_flight = max(cls.peak_in_flight, cls.in_flight)
        try:
            time.sleep(cls.delay)
        finally:
            with cls.lock:
                cls.in_flight -= 1
        prompt = body["messages"][0]["content"]
        status = cls.statuses.get(prompt, cls.status)
        if status == 200:
            content = cls.replies.get((prompt, body["temperature"]), cls.content)
            payload = json.dumps(
                {"choices": [{"message": {"role": "assistant", "content": content}}]}
            ).encode("utf-8")
        else:
            payload = b'{"error": "boom"}'
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def request_prompts() -> list[str]:
    """The prompt of every request the stub endpoint received, in arrival order."""
    return [body["messages"][0]["content"] for _, body, _ in ChatStubHandler.requests]


@pytest.fixture
def stub_server():
    ChatStubHandler.content = "canned reply"
    ChatStubHandler.replies = {}
    ChatStubHandler.status = 200
    ChatStubHandler.statuses = {}
    ChatStubHandler.delay = 0.0
    ChatStubHandler.requests = []
    ChatStubHandler.in_flight = ChatStubHandler.peak_in_flight = 0
    server = ThreadingHTTPServer(("127.0.0.1", 0), ChatStubHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def http_ok(payload: bytes) -> bytes:
    """A whole 200 response carrying ``payload``."""
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%b" % (len(payload), payload)


def chat_ok(content: str) -> bytes:
    """A whole 200 chat-completion response whose message is ``content``."""
    return http_ok(json.dumps({"choices": [{"message": {"role": "assistant", "content": content}}]}).encode())


# Responses that break HTTP, the body's encoding or its decoding.
BROKEN_REPLIES = {
    # Declares 100 bytes and closes after 10.
    "truncated": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789",
    "truncated-503": b"HTTP/1.1 503 Busy\r\nContent-Length: 100\r\n\r\n0123456789",
    "bad-status-line": b"GARBAGE\r\n\r\n",
    "not-utf8": http_ok(b'{"data": "\xff"}'),
    # A chat and an embeddings body in one, but for an integer literal over
    # the interpreter's 4,300-digit limit.
    "huge-integer": http_ok(
        b'{"choices": [{"message": {"content": "x"}}], "data": [{"embedding": [0.6, 0.8]}], "n": '
        + b"7" * 5000 + b"}"
    ),
}


class RawReplyHandler(BaseHTTPRequestHandler):
    """Reads each POST, records its decoded body, writes ``reply(body)``'s
    bytes as the whole response and closes the connection."""

    reply = None
    requests: list = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests.append(body)
        self.wfile.write(type(self).reply(body))

    def log_message(self, *args):
        pass


@pytest.fixture
def raw_server():
    RawReplyHandler.reply = None
    RawReplyHandler.requests = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), RawReplyHandler)
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()
