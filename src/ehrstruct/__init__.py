"""Clinical note structurization: lexicon matching, assertion rules,
attribute backends, integration, and evaluation."""

from .assertion import AssertionStatus, TriggerRule, classify, load_rules
from .attributes import AttributeSet, LlmBackend, RuleBackend
from .evaluate import EvalReport, evaluate, phrase_f1
from .integrate import NoteResult, StructuredEntity, align, assemble
from .llm_client import ChatClient, EndpointConfig, Transcript
from .pipeline import PipelineConfig, build_resources, run_structure, structure_note
from .preprocess import ChunkerConfig, RawNote, chunk_note, count_tokens, restore_linebreaks
from .recognition import Mention, recognize, recognize_note
from .terminology import (
    NOT_APPLICABLE,
    AbbreviationTable,
    ApplicabilityTable,
    LexiconEntry,
    SemanticType,
    TermIndex,
    build_index,
    load_lexicon,
)

__version__ = "0.1.0"
