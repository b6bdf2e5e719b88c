"""Lattice path matroids: bounding-path pairs, transversal presentations,
closed-form invariants, recognition, and class membership."""

from .errors import (DomainError, InputError, InvalidPavingError,
                     InvalidRelaxationError, LatpathError,
                     MalformedPresentationError, NoSpanningCircuitError,
                     ResourceError)
from .families import (CatalogEntry, VerificationReport, catalog, entry_table,
                       is_generalized_catalan, is_notch, lpmchar_check,
                       notlpm_certificate, pn_minor_test,
                       table_components, table_in_catalan, table_in_notch,
                       table_is_lpm, verify_excluded_minor)
from .pairs import (BoundingPair, FundamentalFlats, IntervalPresentation,
                    automorphism_count, canonical_form, circuits,
                    connected_flats, connectivity, count_bases, direct_sum,
                    dual, element_interval, fundamental_flats, is_basis,
                    is_circuit, is_connected, isthmuses, loops,
                    lpm_components, lpm_maximal_presentation, path_minor,
                    restrict_interval, spanning_circuit,
                    standard_presentation, to_rank_table, validate_word)
from .ranktable import (DEFAULT_CAP, DirectSum, Dual, FreeExt, ParallelExt,
                        Paving, RankTable, Relax, Truncate, Uniform,
                        brute_circuits, brute_connected_flats,
                        brute_connectivity, brute_fundamental_flats,
                        construct, dual_table, has_minor, is_isomorphic,
                        minor, paving_table, relax_table)
from .recognition import (IncidenceClass, RecognitionOutcome, Rejection,
                          check_charint, incidence_classes, order_classes,
                          recognize, recover_paths)
from .setsystem import (SetSystem, components, make_system,
                        matching_rank, maximal_presentation, special_elements)

__version__ = "0.1.0"
