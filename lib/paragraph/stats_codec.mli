(** Binary serialisation of {!Analyzer.stats}.

    The persistent artifact store caches analysis results on disk so that
    the table/figure suite can re-render without re-simulating or
    re-analyzing ("trace once, analyze many times", the paper's Pixie /
    Paragraph split taken one step further). This codec is the stats
    payload format: a self-delimiting binary stream behind a
    magic/version header — varint-encoded counters, IEEE-754 bits for
    floats, and the bucketed forms of {!Profile.t} and {!Dist.t}.

    The encoding is canonical: serialising the result of {!of_string} yields
    the same bytes, so byte equality of encodings is a sound (and the
    cheapest) test for stats equality. *)

exception Corrupt of string
(** Raised by {!of_string} on malformed or version-mismatched input. *)

val version : int
(** Version of the analyzer semantics plus this encoding. Bump whenever
    {!Analyzer} changes what any stats field means or this format
    changes; cached artifacts keyed under other versions are then
    ignored and recomputed rather than misread. *)

val to_string : Analyzer.stats -> string
(** The canonical encoding: the stats artifact's payload, the runner's
    cached answer and the daemon protocol's analyze response. *)

val of_string : string -> Analyzer.stats
(** Inverse of {!to_string}; the whole string must be consumed.
    @raise Corrupt *)
