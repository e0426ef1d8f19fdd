(** Binary serialisation of {!Advise.t}.

    The advise payload format of the daemon protocol and the artifact
    store: a self-delimiting binary stream behind a magic/version
    header — varint-encoded counters, locations as {!Ddg_isa.Loc.to_code}
    codes — mirroring {!Ddg_paragraph.Stats_codec}.

    The encoding is canonical: serialising the result of {!of_string}
    yields the same bytes, so byte equality of encodings is a sound
    (and the cheapest) test for report equality — the golden e2e test
    compares in-process, served and router-routed runs this way. *)

exception Corrupt of string
(** Raised on malformed or version-mismatched input. *)

val version : int
(** Version of the advisor semantics plus this encoding. Bump whenever
    {!Advise.analyze} changes what any field means or this format
    changes; cached artifacts keyed under other versions are then
    recomputed rather than misread. *)

val to_string : Advise.t -> string
(** The canonical encoding. *)

val of_string : string -> Advise.t
(** Inverse of {!to_string}; the whole string must be consumed.
    @raise Corrupt *)
