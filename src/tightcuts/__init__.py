"""Tight cuts, ELP-cuts and GS-cuts in matching covered graphs."""

from .corpus import CorpusStream, enumerate_matching_covered, gen_h_n, gen_h_n_prime, gen_named
from .decomp import (DecompositionTree, brick_number, decompose, find_nontrivial_tight_cut,
                     is_brace, is_brick)
from .elp import (Barrier, ElpCut, TwoSeparation, all_two_separation_cuts, barrier_cuts,
                  elp_set, enumerate_nontrivial_barriers, is_barrier, is_barrier_cut,
                  two_separation_cuts, two_separations)
from .errors import (BadCertificate, BadParameter, BadShore, BadSplice, BadVertex,
                     EmptySet, EvenShore, GraphMismatch, GraphTooLarge, LoopRejected,
                     NeedExternalCorpus, NotMatchingCovered, NotTight, ParseError,
                     SearchBudgetExceeded, TightcutsError, TooSmall, TrivialCut,
                     UnknownGraph)
from .formats import (graph_from_json_obj, graph_to_json, graph_to_json_obj, parse_graph6,
                      parse_graph_json, read_graph6_file, read_graph6_lines, write_graph6)
from .graphcore import (Cut, MultiGraph, build_graph, contract, cut_edges, cuts_cross,
                        edge_splice, edges_between, graph_from, is_laminar, make_cut,
                        relabel_graph, removed_components, shore_contraction)
from .gscut import (EssentialGSCertificate, GSCertificate, TightCutClassification,
                    associated_family, check_splice_tightness, classify_tight_cut,
                    end_2_separations, is_essential_gs_cut, is_gs_cut,
                    validate_certificate_json_obj)
from .matching import (Matching, MatchingEnumeration, TightnessVerdict,
                       enumerate_perfect_matchings, enumerate_tight_cuts,
                       has_perfect_matching, is_bicritical, is_matching_covered, is_tight,
                       is_tight_by_enumeration, odd_shores, tutte_violator)

__version__ = "0.1.0"
