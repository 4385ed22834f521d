"""Clinical note structurization: lexicon matching, assertion rules,
attribute backends, integration, and evaluation."""

from .assertion import AssertionStatus, TriggerRule, classify, load_rules, load_triggers
from .attributes import LlmBackend, RuleBackend
from .evaluate import EvalReport, evaluate, phrase_f1
from .integrate import NoteResult, StructuredEntity, align, assemble
from .llm_client import ChatClient, EndpointConfig, Transcript
from .pipeline import PipelineConfig, build_resources, run_structure, structure_note
from .preprocess import RawNote, chunk_note, count_tokens, restore_linebreaks, segment
from .recognition import Mention, recognize, recognize_note
from .terminology import (
    NOT_APPLICABLE,
    AbbreviationTable,
    ApplicabilityTable,
    SemanticType,
    TermIndex,
    load_lexicon,
)

__version__ = "0.1.0"
