type kind = Tier1 | Transit | Access | Content | Enterprise | Ixp

let kind_to_string = function
  | Tier1 -> "Tier1"
  | Transit -> "Transit"
  | Access -> "Access"
  | Content -> "Content"
  | Enterprise -> "Enterprise"
  | Ixp -> "IXP"

let kind_equal (a : kind) b = a = b
let is_as = function Ixp -> false | Tier1 | Transit | Access | Content | Enterprise -> true
let all_kinds = [ Tier1; Transit; Access; Content; Enterprise; Ixp ]

let arc_none = '\000'
let arc_up = '\001'
let arc_down = '\002'
let arc_peer = '\003'
let arc_ixp = '\004'
