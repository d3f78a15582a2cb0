type sort = S_string | S_int | S_bool | S_reglan

type term =
  | Var of string
  | Str of string
  | Int of int
  | Bool of bool
  | App of string * term list

type command =
  | Set_logic of string
  | Set_info
  | Set_option
  | Declare_const of string * sort
  | Assert of term
  | Push of int
  | Pop of int
  | Check_sat
  | Check_sat_assuming of term list
  | Get_model
  | Get_value of term list
  | Echo of string
  | Exit

let sort_of_string = function
  | "String" -> Some S_string
  | "Int" -> Some S_int
  | "Bool" -> Some S_bool
  | "RegLan" -> Some S_reglan
  | _ -> None

let string_of_sort = function
  | S_string -> "String"
  | S_int -> "Int"
  | S_bool -> "Bool"
  | S_reglan -> "RegLan"

let rec pp_term ppf = function
  | Var v -> Format.pp_print_string ppf v
  | Str s -> Sexp.pp_string ppf s
  | Int n -> Format.pp_print_int ppf n
  | Bool b -> Format.pp_print_bool ppf b
  | App (op, args) ->
    Format.fprintf ppf "(%s" op;
    List.iter (fun a -> Format.fprintf ppf " %a" pp_term a) args;
    Format.pp_print_char ppf ')'

let pp_command ppf = function
  | Set_logic l -> Format.fprintf ppf "(set-logic %s)" l
  | Set_info -> Format.fprintf ppf "(set-info ...)"
  | Set_option -> Format.fprintf ppf "(set-option ...)"
  | Declare_const (name, sort) ->
    Format.fprintf ppf "(declare-const %s %s)" name (string_of_sort sort)
  | Assert t -> Format.fprintf ppf "(assert %a)" pp_term t
  | Push n -> Format.fprintf ppf "(push %d)" n
  | Pop n -> Format.fprintf ppf "(pop %d)" n
  | Check_sat -> Format.fprintf ppf "(check-sat)"
  | Check_sat_assuming ts ->
    Format.fprintf ppf "(check-sat-assuming (%a))"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_term)
      ts
  | Get_model -> Format.fprintf ppf "(get-model)"
  | Get_value ts ->
    Format.fprintf ppf "(get-value (%a))"
      (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_term)
      ts
  | Echo s -> Format.fprintf ppf "(echo %S)" s
  | Exit -> Format.fprintf ppf "(exit)"

let term_to_string t = Format.asprintf "%a" pp_term t
